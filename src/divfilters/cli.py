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
import importlib
import json
import sys

from . import arith
from .errors import DivfiltersError, ParseError, PreconditionError
from .semantics import DEFAULT_BUDGET, enumerate_upto
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


# A verdict command is declared by one row: its help text, the function that
# decides it as "module.function", and its operands in call order. Each
# operand is a positional argument: expr is parsed as an expression, f and g
# as filter specs and echoed as their spec text, m is a natural echoed as
# given. The function is called with the operands, interp's --bound and the
# budget, in that order, and its verdict is printed after the echo.
VERDICT_COMMANDS = {
    "member": ("three-valued membership of m in an expression",
               "semantics.member", ("expr", "m")),
    "upclosed": ("is the expression upward closed?",
                 "semantics.is_upward_closed", ("expr",)),
    "nfree": ("N-freeness verdict with certificate", "antichain.is_n_free", ("expr",)),
    "divides": ("tilde-divisibility between two filters",
                "filters.divides_tilde", ("f", "g")),
    "product-member": ("membership of a set in a product filter",
                       "filters.product_member", ("f", "g", "expr")),
    "d-member": ("membership of a set in the derived filter D(F)",
                 "filters.d_member", ("f", "expr")),
    "interp": ("interpolation triple a | c | b on filter cores",
               "filters.interpolation_check", ("f", "g")),
}


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


def _emit_verdict(v: Verdict, as_json: bool, echo: dict) -> int:
    _emit({**echo, **v.to_json()}, as_json)
    if v.proved:
        return EXIT_PROVED
    return EXIT_REFUTED if v.refuted else EXIT_UNKNOWN


def build_parser() -> _Parser:
    parser = _Parser(prog="divfilters", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="JSON output")
        p.add_argument("--budget", type=_natural, default=DEFAULT_BUDGET,
                       help="verdict search cap")
        return p

    for name, (help_text, _, operands) in VERDICT_COMMANDS.items():
        p = add(name, help=help_text)
        for operand in operands:
            p.add_argument(operand, type=_natural if operand == "m" else None)
        if name == "interp":
            p.add_argument("--bound", type=_natural, default=10**3)

    p = add("factor", help="prime factorization")
    p.add_argument("n", type=_natural)

    p = add("enumerate", help="members of an expression up to a bound")
    p.add_argument("expr")
    p.add_argument("--bound", type=_natural, required=True)

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

    if cmd in VERDICT_COMMANDS:
        _, target, operands = VERDICT_COMMANDS[cmd]
        module, name = target.split(".")
        decide = getattr(importlib.import_module(f".{module}", __package__), name)
        values, echo = [], {}
        for operand in operands:
            value = echo[operand] = getattr(args, operand)
            if operand == "expr":
                value = parse_expr(value)
            elif operand in ("f", "g"):
                from .filters import parse_filter_spec

                value = parse_filter_spec(value, budget)
                echo[operand] = value.spec_text()
            values.append(value)
        if cmd == "interp":
            values.append(args.bound)
        return _emit_verdict(decide(*values, budget), as_json, echo)

    if cmd == "factor":
        fact = arith.factorize(args.n)
        _emit({"n": fact.value,
               "factors": {str(p): k for p, k in fact.factors}}, as_json)
        return EXIT_PROVED

    if cmd == "enumerate":
        e = parse_expr(args.expr)
        members, complete = enumerate_upto(e, args.bound, max(budget, args.bound))
        _emit({"expr": render(e), "bound": args.bound,
               "members": members, "complete": complete}, as_json)
        return EXIT_PROVED if complete else EXIT_UNKNOWN

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
