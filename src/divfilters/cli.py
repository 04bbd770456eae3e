"""Command-line surface.

Every command ends in a payload and a proof state, and one tail prints the
payload and exits with the state's code from one map, so shell pipelines
can branch on proof state: 0 = Proved / pass, 1 = Refuted / fail, 2 =
UnknownAtBound (chain-verify: some pairs Unknown, none decided wrongly;
cover: a cover checked only up to the bound, or none found where one may
exist), 64 = usage error, 70 = internal error (a crash, with its traceback
on stderr). A crash never exits 0, 1 or 2.
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
from .semantics import DEFAULT_BUDGET, enumerate_upto, facts
from .setexpr import NODE_CLASSES, parse_expr, render, usage
from .verdict import SCHEMA_VERSION, ProofState

EXIT_PROVED = 0
EXIT_REFUTED = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70
# the one place where a command's answer becomes an exit code
EXIT_CODES = {ProofState.PROVED: EXIT_PROVED, ProofState.REFUTED: EXIT_REFUTED,
              ProofState.UNKNOWN: EXIT_UNKNOWN}

GRAMMAR_HINT = (
    "expressions: " + " | ".join(map(usage, NODE_CLASSES))
    + "; filters: principal:<n> or gen:[e1;e2;...]"
)


# A verdict command is declared by one row: its help text, the function that
# decides it as "module.function", and its operands in call order. Each
# operand is a positional argument: expr is parsed as an expression, f and g
# as filter specs and echoed as their spec text, m is a natural echoed as
# given. The function is called with the operands, interp's --bound and the
# budget, in that order; its verdict, after the echo, is the payload, and its
# state the exit code, of the one tail in main that every command ends in.
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
    try:
        value = int(text) if text.isascii() and text.isdigit() else 0
    except ValueError:  # more digits than the interpreter converts
        raise argparse.ArgumentTypeError("natural number has too many digits") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a natural >= 1, got {text!r}")
    return value


def _integer(text: str) -> int:
    """The argparse type of a chain length and a seed: any int that int()
    reads. A numeral past the interpreter's digit limit is refused with a
    message that does not echo its digits."""
    try:
        return int(text)
    except ValueError:
        body = text.strip().replace("_", "")
        if body[:1] in ("+", "-"):
            body = body[1:]
        if body.isdecimal() and len(body) > sys.get_int_max_str_digits() > 0:
            raise argparse.ArgumentTypeError("integer has too many digits") from None
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _emit(payload: dict | list[str], as_json: bool) -> None:
    """Print a dict as JSON or aligned key-value lines, a list as its lines."""
    if as_json:
        print(json.dumps({"schema": SCHEMA_VERSION, **payload}, default=str))
        return
    if isinstance(payload, dict):
        width = max((len(k) for k in payload), default=0)
        payload = [f"{key.ljust(width)}  {value}" for key, value in payload.items()]
    for line in payload:
        print(line)


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
    p.add_argument("k", type=_integer)
    p.add_argument("--scheme", choices=("residue", "tree"), default="residue")

    p = add("chain-verify", help="build and verify a chain's invariant")
    p.add_argument("k", type=_integer)
    p.add_argument("--scheme", choices=("residue", "tree"), default="residue")
    p.add_argument("--bound", type=_natural, default=10**6)

    p = add("harness", help="run lemma-verification suites")
    p.add_argument("lemmas", nargs="*", metavar="LEMMA",
                   help="suite ids, default all")  # listed by format_help
    p.add_argument("--bound", type=_natural)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--corpus", help="corpus file, or 'default'")
    p.add_argument("--k", type=_natural, help="chain length for T4.2")

    return parser


def _run(args: argparse.Namespace) -> tuple[dict | list[str], ProofState]:
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
        v = decide(*values, budget)
        return {**echo, **v.to_json()}, v.state

    if cmd == "factor":
        fact = arith.factorize(args.n)
        return {"n": fact.value,
                "factors": {str(p): k for p, k in fact.factors}}, ProofState.PROVED

    if cmd == "enumerate":
        e = parse_expr(args.expr)
        members, complete = enumerate_upto(e, args.bound, max(budget, args.bound))
        payload = {"expr": render(e), "bound": args.bound, "members": members,
                   "complete": complete}
        return payload, ProofState.PROVED if complete else ProofState.UNKNOWN

    if cmd == "antichain":
        from .antichain import max_strong_antichain

        mode = "greedy" if args.greedy else "exact"
        size, cert = max_strong_antichain(
            parse_expr(args.expr), args.bound, mode=mode, budget=budget)
        return {"size": size, **cert.to_json()}, ProofState.PROVED

    if cmd == "cover":
        from .antichain import covering_witness

        e = parse_expr(args.expr)
        cert = covering_witness(e, args.k_max, args.n_max, args.bound, budget)
        # a cover is proved only when it covers the structural cover; an
        # infinite pairwise-coprime family has no finite cover at all
        if cert is not None and cert.structural:
            return cert.to_json(), ProofState.PROVED
        state = ProofState.REFUTED if facts(e).antichain else ProofState.UNKNOWN
        if cert is None:
            return {"cover": None, "detail": "no cover within the search bounds"}, state
        return cert.to_json(), state

    if cmd in ("chain-build", "chain-verify"):
        from .chains import build_chain, verify_chain

        chain = build_chain(args.k, scheme=args.scheme, budget=budget)
        if cmd == "chain-build":
            return chain.to_json(), ProofState.PROVED
        report = verify_chain(chain, args.bound, budget)
        # fail only on a verdict decided against its expectation
        decided = any(not pr.ok and pr.verdict.decided for pr in report.pairs)
        state = (ProofState.PROVED if report.passed
                 else ProofState.REFUTED if decided else ProofState.UNKNOWN)
        if as_json:
            return report.to_json(), state
        return [f"beta={pr.beta} alpha={pr.alpha} expect={pr.expectation} "
                f"verdict={pr.verdict.state.value} ok={pr.ok}"
                for pr in report.pairs] + [f"passed  {report.passed}"], state

    if cmd == "harness":
        from .corpus import load_corpus
        from .harness import HarnessParams, run_harness

        corpus = None
        if args.corpus and args.corpus != "default":
            corpus = load_corpus(args.corpus)
        params = HarnessParams(bound=args.bound, budget=budget,
                               seed=args.seed, corpus=corpus, k=args.k)
        report = run_harness(args.lemmas, params)
        state = ProofState.PROVED if report.passed else ProofState.REFUTED
        if as_json:
            return report.to_json(), state
        lines = []
        for case in report.cases:
            line = f"{case.lemma_id:9s} {case.outcome:7s} {case.case_id}"
            if case.detail:
                line += f"  [{case.detail}]"
            lines.append(line)
            if case.replay:
                lines.append(f"  replay: divfilters {' '.join(case.replay)}")
        counts = report.counts
        lines.append(f"summary: {counts['pass']} pass, {counts['fail']} fail, "
                     f"{counts['skipped']} skipped")
        return lines, state

    raise _UsageError(f"unknown command {cmd!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload, state = _run(args)
        _emit(payload, args.json)
        return EXIT_CODES[state]
    except _UsageError as exc:
        # no grammar hint: most usage errors are not about an expression
        print(f"usage error: {exc}", file=sys.stderr)
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
