"""Default expression corpus and corpus-file loading."""

from __future__ import annotations

import random
from importlib import resources

from .errors import ParseError, PreconditionError
from .setexpr import Lit, Mult, PrimesIdx, SetExpr, Union, Up, parse_expr

from . import arith


def load_corpus(path: str | None = None) -> list[SetExpr]:
    """Expressions from a corpus file (one per line, '#' comments).

    Without a path, the bundled default corpus is used. A file that cannot
    be read as UTF-8 text (a leading byte-order mark is skipped) is a
    PreconditionError naming its path; a line that does not parse is a
    ParseError naming the path and the line's 1-based number, at its offset
    in the line as written.
    """
    if path is None:
        text = resources.files("divfilters.data").joinpath("corpus.txt").read_text()
    else:
        try:
            with open(path, encoding="utf-8-sig") as handle:
                text = handle.read()
        except OSError as exc:
            raise PreconditionError(
                f"cannot read corpus file {path!r}: {exc.strerror or exc}") from None
        except UnicodeDecodeError as exc:
            raise PreconditionError(
                f"corpus file {path!r} is not UTF-8 text: {exc.reason} at byte {exc.start}"
            ) from None
    exprs = []
    for number, line in enumerate(text.splitlines(), 1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        try:
            exprs.append(parse_expr(line))
        except ParseError as exc:
            raise ParseError(f"corpus file {path!r} line {number}: {exc.message}",
                             exc.position) from None
    return exprs


def default_filters() -> list:
    """Documented filter corpus used by the harness and acceptance suite."""
    from .filters import make_filter, principal
    from .setexpr import PrimesIdx, ProdSet

    return [
        principal(1),
        principal(2),
        principal(6),
        principal(30),
        make_filter([Mult(2)]),
        make_filter([Mult(6)]),
        make_filter([Mult(12)]),
        make_filter([Mult(2), Mult(3)]),
        make_filter([Up(Lit(frozenset({4, 9})))]),
        make_filter([Up(PrimesIdx(1, 2))]),
        make_filter([Up(PrimesIdx(2, 2))]),
        make_filter([Up(ProdSet((PrimesIdx(1, 2), PrimesIdx(2, 2))))]),
    ]


def random_expressions(seed: int, count: int) -> list[SetExpr]:
    """Seeded corpus augmentation: simple random union/up/mult shapes."""
    rng = random.Random(seed)
    out: list[SetExpr] = []
    primes = arith.primes_upto(100)
    for _ in range(count):
        shape = rng.randrange(3)
        if shape == 0:
            out.append(Mult(rng.randint(2, 30)))
        elif shape == 1:
            chosen = frozenset(rng.sample(primes, rng.randint(1, 4)))
            out.append(Up(Lit(chosen)))
        else:
            out.append(Union(Mult(rng.randint(2, 12)), Mult(rng.randint(2, 12))))
    return out
