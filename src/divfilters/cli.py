"""Command-line surface.

Exit codes map the three-valued verdict so shell pipelines can branch on
proof state: 0 = Proved / pass, 1 = Refuted / fail, 2 = UnknownAtBound,
64 = usage error, 70 = internal error (a crash, with its traceback on
stderr). A crash never exits 0, 1 or 2.
"""

# Start-up is part of every query's latency, so only the modules that the
# parser and the expression commands need are imported here; the commands
# on filters, antichains, chains and the harness import theirs when they run.

from __future__ import annotations

import argparse
import json
import sys

from . import arith
from .errors import DivfiltersError, ParseError, PreconditionError
from .semantics import DEFAULT_BUDGET, enumerate_upto, is_upward_closed, member
from .setexpr import NODE_CLASSES, parse_expr, render, usage
from .verdict import SCHEMA_VERSION, Verdict

EXIT_PROVED = 0
EXIT_REFUTED = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70

GRAMMAR_HINT = (
    "expressions: " + " | ".join(map(usage, NODE_CLASSES))
    + "; filters: principal:<n> or gen:[e1;e2;...]"
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64 instead of argparse's 2
        raise _UsageError(message)

    def format_help(self):
        # the harness's suite ids are read only when its help is shown, so
        # that no other command imports harness
        for action in self._actions:
            if action.metavar == "LEMMA":
                from .harness import LEMMA_IDS

                action.help = f"suite ids, default all: {', '.join(LEMMA_IDS)}"
        return super().format_help()


def _natural(text: str) -> int:
    """The argparse type of every budget, bound and count: a natural >= 1,
    written in ASCII digits."""
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a natural >= 1, got {text!r}")
    return int(text)


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        payload = {"schema": SCHEMA_VERSION, **payload}
        print(json.dumps(payload, default=str))
        return
    width = max((len(k) for k in payload), default=0)
    for key, value in payload.items():
        print(f"{key.ljust(width)}  {value}")


def _verdict_exit(v: Verdict) -> int:
    if v.proved:
        return EXIT_PROVED
    if v.refuted:
        return EXIT_REFUTED
    return EXIT_UNKNOWN


def _emit_verdict(v: Verdict, as_json: bool, extra: dict | None = None) -> int:
    payload = dict(extra or {})
    payload.update(v.to_json())
    _emit(payload, as_json)
    return _verdict_exit(v)


def build_parser() -> _Parser:
    parser = _Parser(prog="divfilters", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="JSON output")
        p.add_argument("--budget", type=_natural, default=DEFAULT_BUDGET,
                       help="verdict search cap")
        return p

    p = add("factor", help="prime factorization")
    p.add_argument("n", type=_natural)

    p = add("member", help="three-valued membership of m in an expression")
    p.add_argument("expr")
    p.add_argument("m", type=int)

    p = add("enumerate", help="members of an expression up to a bound")
    p.add_argument("expr")
    p.add_argument("--bound", type=_natural, required=True)

    p = add("upclosed", help="is the expression upward closed?")
    p.add_argument("expr")

    p = add("antichain", help="largest pairwise-coprime subset up to a bound")
    p.add_argument("expr")
    p.add_argument("--bound", type=_natural, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--greedy", action="store_true")

    p = add("cover", help="search for a finite covering set of moduli")
    p.add_argument("expr")
    p.add_argument("--k-max", type=_natural, default=3)
    p.add_argument("--n-max", type=_natural, default=50)
    p.add_argument("--bound", type=_natural, default=10**4)

    p = add("nfree", help="N-freeness verdict with certificate")
    p.add_argument("expr")

    p = add("divides", help="tilde-divisibility between two filters")
    p.add_argument("f")
    p.add_argument("g")

    p = add("product-member", help="membership of a set in a product filter")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("expr")

    p = add("d-member", help="membership of a set in the derived filter D(F)")
    p.add_argument("f")
    p.add_argument("expr")

    p = add("interp", help="interpolation triple a | c | b on filter cores")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--bound", type=_natural, default=10**3)

    p = add("chain-build", help="build a finite divisibility chain")
    p.add_argument("k", type=int)
    p.add_argument("--scheme", choices=("residue", "tree"), default="residue")

    p = add("chain-verify", help="build and verify a chain's invariant")
    p.add_argument("k", type=int)
    p.add_argument("--scheme", choices=("residue", "tree"), default="residue")
    p.add_argument("--bound", type=_natural, default=10**6)

    p = add("harness", help="run lemma-verification suites")
    p.add_argument("lemmas", nargs="*", metavar="LEMMA",
                   help="suite ids, default all")  # listed by format_help
    p.add_argument("--bound", type=_natural)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corpus", help="corpus file, or 'default'")
    p.add_argument("--k", type=_natural, help="chain length for T4.2")

    return parser


def _run(args: argparse.Namespace) -> int:
    as_json = args.json
    budget = args.budget
    cmd = args.command

    if cmd == "factor":
        fact = arith.factorize(args.n)
        _emit({"n": fact.value,
               "factors": {str(p): k for p, k in fact.factors}}, as_json)
        return EXIT_PROVED

    if cmd == "member":
        return _emit_verdict(
            member(parse_expr(args.expr), args.m, budget), as_json,
            {"expr": args.expr, "m": args.m})

    if cmd == "enumerate":
        e = parse_expr(args.expr)
        members, complete = enumerate_upto(e, args.bound, max(budget, args.bound))
        _emit({"expr": render(e), "bound": args.bound,
               "members": members, "complete": complete}, as_json)
        return EXIT_PROVED if complete else EXIT_UNKNOWN

    if cmd == "upclosed":
        return _emit_verdict(
            is_upward_closed(parse_expr(args.expr), budget), as_json,
            {"expr": args.expr})

    if cmd == "antichain":
        from .antichain import max_strong_antichain

        mode = "greedy" if args.greedy else "exact"
        size, cert = max_strong_antichain(
            parse_expr(args.expr), args.bound, mode=mode, budget=budget)
        _emit({"size": size, **cert.to_json()}, as_json)
        return EXIT_PROVED

    if cmd == "cover":
        from .antichain import covering_witness

        cert = covering_witness(
            parse_expr(args.expr), args.k_max, args.n_max, args.bound, budget)
        if cert is None:
            _emit({"cover": None,
                   "detail": "no cover within the search bounds"}, as_json)
            return EXIT_REFUTED
        _emit(cert.to_json(), as_json)
        return EXIT_PROVED

    if cmd == "nfree":
        from .antichain import is_n_free

        return _emit_verdict(is_n_free(parse_expr(args.expr), budget),
                             as_json, {"expr": args.expr})

    if cmd == "divides":
        from .filters import divides_tilde, parse_filter_spec

        f = parse_filter_spec(args.f, budget)
        g = parse_filter_spec(args.g, budget)
        return _emit_verdict(divides_tilde(f, g, budget), as_json,
                             {"f": f.spec_text(), "g": g.spec_text()})

    if cmd == "product-member":
        from .filters import parse_filter_spec, product_member

        f = parse_filter_spec(args.f, budget)
        g = parse_filter_spec(args.g, budget)
        return _emit_verdict(
            product_member(f, g, parse_expr(args.expr), budget), as_json,
            {"f": f.spec_text(), "g": g.spec_text(), "expr": args.expr})

    if cmd == "d-member":
        from .filters import d_member, parse_filter_spec

        f = parse_filter_spec(args.f, budget)
        return _emit_verdict(d_member(f, parse_expr(args.expr), budget),
                             as_json, {"f": f.spec_text(), "expr": args.expr})

    if cmd == "interp":
        from .filters import interpolation_check, parse_filter_spec

        f = parse_filter_spec(args.f, budget)
        g = parse_filter_spec(args.g, budget)
        return _emit_verdict(interpolation_check(f, g, args.bound, budget),
                             as_json, {"f": f.spec_text(), "g": g.spec_text()})

    if cmd == "chain-build":
        from .chains import build_chain

        chain = build_chain(args.k, scheme=args.scheme, budget=budget)
        _emit(chain.to_json(), as_json)
        return EXIT_PROVED

    if cmd == "chain-verify":
        from .chains import build_chain, verify_chain

        chain = build_chain(args.k, scheme=args.scheme, budget=budget)
        report = verify_chain(chain, args.bound, budget)
        if as_json:
            _emit(report.to_json(), as_json)
        else:
            for pr in report.pairs:
                print(f"beta={pr.beta} alpha={pr.alpha} "
                      f"expect={pr.expectation} "
                      f"verdict={pr.verdict.state.value} ok={pr.ok}")
            print(f"passed  {report.passed}")
        return EXIT_PROVED if report.passed else EXIT_REFUTED

    if cmd == "harness":
        from .corpus import load_corpus
        from .harness import LEMMA_IDS, HarnessParams, run_harness

        lemmas = args.lemmas or None
        if lemmas:
            for lemma in lemmas:
                if lemma not in LEMMA_IDS:
                    raise _UsageError(
                        f"unknown lemma id {lemma!r}; valid: {', '.join(LEMMA_IDS)}")
        corpus = None
        if args.corpus and args.corpus != "default":
            corpus = load_corpus(args.corpus)
        params = HarnessParams(bound=args.bound, budget=budget,
                               seed=args.seed, corpus=corpus, k=args.k)
        report = run_harness(lemmas, params)
        if as_json:
            _emit(report.to_json(), as_json)
        else:
            for case in report.cases:
                line = f"{case.lemma_id:9s} {case.outcome:7s} {case.case_id}"
                if case.detail:
                    line += f"  [{case.detail}]"
                print(line)
                if case.replay:
                    print(f"  replay: divfilters {' '.join(case.replay)}")
            counts = report.counts
            print(f"summary: {counts['pass']} pass, {counts['fail']} fail, "
                  f"{counts['skipped']} skipped")
        return EXIT_PROVED if report.passed else EXIT_REFUTED

    raise _UsageError(f"unknown command {cmd!r}")


def run_query(argv: list[str]) -> int:
    """Programmatic entry point used for counterexample replay."""
    return main(argv)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(GRAMMAR_HINT, file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error at offset {exc.position}: {exc}", file=sys.stderr)
        print(GRAMMAR_HINT, file=sys.stderr)
        return EXIT_USAGE
    except PreconditionError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivfiltersError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except Exception as exc:
        # any other exception is a fault of the program, not a verdict;
        # the hook prints it as the interpreter prints an uncaught one
        sys.excepthook(type(exc), exc, exc.__traceback__)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
