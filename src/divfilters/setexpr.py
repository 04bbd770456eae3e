"""Symbolic descriptions of subsets of N: expression trees over a fixed
atom/combinator vocabulary, plus a parser and a canonical renderer.

Grammar (whitespace-insensitive; renderer emits the canonical no-space form):

    expr := "N" | "P" | "empty" | "factorials"
          | "{" nat ("," nat)* "}"
          | "mult(" nat ")" | "level(" nat ")" | "primesIdx(" nat "," nat ")"
          | "primesGeom(" nat "," nat ")"
          | "pow(" expr "," nat ")" | "prodset(" expr ("," expr)+ ")"
          | "comp(" expr ")" | "union(" expr "," expr ")" | "inter(" expr "," expr ")"
          | "up(" expr ")" | "down(" expr ")"
          | "quot(" expr "," nat ")" | "scale(" expr "," nat ")"

primesGeom(c,q) = {i-th prime : i = c*q^t, t >= 0} is an extension atom used
by the tree-scheme almost-disjoint families; everything else follows the
standard vocabulary.

Expressions are immutable; structural equality is syntactic only.

The parser accepts nesting up to MAX_DEPTH levels, as counted by depth():
the evaluators and structural rules recurse once or twice per level, and a
deeper input is rejected with a ParseError before it can exhaust the
interpreter's stack.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError, PreconditionError

MAX_DEPTH = 200


class SetExpr:
    """Base class for all expression nodes."""

    __slots__ = ()

    def __repr__(self):
        return render(self)


@dataclass(frozen=True, repr=False)
class Nat(SetExpr):
    """All of N."""


@dataclass(frozen=True, repr=False)
class Empty(SetExpr):
    pass


@dataclass(frozen=True, repr=False)
class Primes(SetExpr):
    """The set P of all primes."""


@dataclass(frozen=True, repr=False)
class Factorials(SetExpr):
    """{n! : n in N}."""


@dataclass(frozen=True, repr=False)
class Lit(SetExpr):
    """An explicit finite set of naturals."""

    elements: frozenset[int]

    def __post_init__(self):
        if any(not isinstance(x, int) or x < 1 for x in self.elements):
            raise PreconditionError("Lit elements must be naturals >= 1")


def lit(*elements: int) -> Lit:
    return Lit(frozenset(elements))


@dataclass(frozen=True, repr=False)
class Mult(SetExpr):
    """nN = {n*m : m in N}."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise PreconditionError("mult parameter must be >= 1")


@dataclass(frozen=True, repr=False)
class Level(SetExpr):
    """Numbers with exactly n prime factors counted with multiplicity."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise PreconditionError("level parameter must be >= 0")


@dataclass(frozen=True, repr=False)
class PrimesIdx(SetExpr):
    """{i-th prime : i == r (mod m)}, 1-based prime index, 1 <= r <= m."""

    r: int
    m: int

    def __post_init__(self):
        if self.m < 1 or not (1 <= self.r <= self.m):
            raise PreconditionError("primesIdx requires 1 <= r <= m")


@dataclass(frozen=True, repr=False)
class PrimesGeom(SetExpr):
    """{i-th prime : i = c*q^t, t >= 0}, c >= 1, q >= 2."""

    c: int
    q: int

    def __post_init__(self):
        if self.c < 1 or self.q < 2:
            raise PreconditionError("primesGeom requires c >= 1 and q >= 2")


@dataclass(frozen=True, repr=False)
class PowSet(SetExpr):
    """{x^n : x in base}."""

    base: SetExpr
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise PreconditionError("pow exponent must be >= 1")


@dataclass(frozen=True, repr=False)
class ProdSet(SetExpr):
    """{x_1*...*x_k : x_i in args[i], pairwise distinct}, k >= 1."""

    args: tuple[SetExpr, ...]

    def __post_init__(self):
        if len(self.args) < 1:
            raise PreconditionError("prodset needs at least one argument")


@dataclass(frozen=True, repr=False)
class Comp(SetExpr):
    inner: SetExpr


@dataclass(frozen=True, repr=False)
class Union(SetExpr):
    left: SetExpr
    right: SetExpr


@dataclass(frozen=True, repr=False)
class Inter(SetExpr):
    left: SetExpr
    right: SetExpr


@dataclass(frozen=True, repr=False)
class Up(SetExpr):
    """Upward closure under divisibility: {m : some a in inner divides m}."""

    inner: SetExpr


@dataclass(frozen=True, repr=False)
class Down(SetExpr):
    """Downward closure: {m : m divides some a in inner}. Semi-decidable;
    decided when inner is a literal set or empty."""

    inner: SetExpr


@dataclass(frozen=True, repr=False)
class Quot(SetExpr):
    """inner/n = {m : m*n in inner}."""

    inner: SetExpr
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise PreconditionError("quot divisor must be >= 1")


@dataclass(frozen=True, repr=False)
class Scale(SetExpr):
    """n*inner = {n*e : e in inner}."""

    inner: SetExpr
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise PreconditionError("scale factor must be >= 1")


N = Nat()
P = Primes()
EMPTY = Empty()
FACTORIALS = Factorials()


def children(e: SetExpr) -> tuple[SetExpr, ...]:
    if isinstance(e, (Comp, Up, Down, Quot, Scale)):
        return (e.inner,)
    if isinstance(e, (Union, Inter)):
        return (e.left, e.right)
    if isinstance(e, PowSet):
        return (e.base,)
    if isinstance(e, ProdSet):
        return e.args
    return ()


def node_count(e: SetExpr) -> int:
    return 1 + sum(node_count(c) for c in children(e))


def depth(e: SetExpr) -> int:
    kids = children(e)
    return 1 + (max(depth(c) for c in kids) if kids else 0)


def contains_down(e: SetExpr) -> bool:
    if isinstance(e, Down):
        return True
    return any(contains_down(c) for c in children(e))


def render(e: SetExpr) -> str:
    """Canonical text form; parse(render(e)) == e for grammar expressions."""
    if isinstance(e, Nat):
        return "N"
    if isinstance(e, Primes):
        return "P"
    if isinstance(e, Empty):
        return "empty"
    if isinstance(e, Factorials):
        return "factorials"
    if isinstance(e, Lit):
        return "{" + ",".join(str(x) for x in sorted(e.elements)) + "}"
    if isinstance(e, Mult):
        return f"mult({e.n})"
    if isinstance(e, Level):
        return f"level({e.n})"
    if isinstance(e, PrimesIdx):
        return f"primesIdx({e.r},{e.m})"
    if isinstance(e, PrimesGeom):
        return f"primesGeom({e.c},{e.q})"
    if isinstance(e, PowSet):
        return f"pow({render(e.base)},{e.n})"
    if isinstance(e, ProdSet):
        return "prodset(" + ",".join(render(a) for a in e.args) + ")"
    if isinstance(e, Comp):
        return f"comp({render(e.inner)})"
    if isinstance(e, Union):
        return f"union({render(e.left)},{render(e.right)})"
    if isinstance(e, Inter):
        return f"inter({render(e.left)},{render(e.right)})"
    if isinstance(e, Up):
        return f"up({render(e.inner)})"
    if isinstance(e, Down):
        return f"down({render(e.inner)})"
    if isinstance(e, Quot):
        return f"quot({render(e.inner)},{e.n})"
    if isinstance(e, Scale):
        return f"scale({render(e.inner)},{e.n})"
    raise TypeError(f"unknown node {e!r}")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        # ASCII digits only: str.isdigit() also accepts digits int() refuses
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a natural number")
        try:
            value = int(self.text[start : self.pos])
        except ValueError:  # more digits than the interpreter converts
            self.pos = start
            raise self.error("natural number has too many digits") from None
        if value < 1:
            self.pos = start
            raise self.error("naturals start at 1")
        return value

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]

    def expr(self) -> SetExpr:
        if self.depth == MAX_DEPTH:
            raise self.error(f"expression nested deeper than {MAX_DEPTH} levels")
        self.depth += 1
        try:
            return self._node()
        finally:
            self.depth -= 1

    def _node(self) -> SetExpr:
        self.skip_ws()
        if self.peek() == "{":
            self.expect("{")
            elems = [self.nat()]
            while self.peek() == ",":
                self.expect(",")
                elems.append(self.nat())
            self.expect("}")
            return Lit(frozenset(elems))
        start = self.pos
        head = self.word()
        if head == "N":
            return N
        if head == "P":
            return P
        if head == "empty":
            return EMPTY
        if head == "factorials":
            return FACTORIALS
        try:
            if head == "mult":
                return Mult(self._nat_args(1)[0])
            if head == "level":
                return Level(self._nat_args(1)[0])
            if head == "primesIdx":
                r, m = self._nat_args(2)
                return PrimesIdx(r, m)
            if head == "primesGeom":
                c, q = self._nat_args(2)
                return PrimesGeom(c, q)
            if head == "pow":
                self.expect("(")
                base = self.expr()
                self.expect(",")
                n = self.nat()
                self.expect(")")
                return PowSet(base, n)
            if head == "prodset":
                self.expect("(")
                args = [self.expr()]
                while self.peek() == ",":
                    self.expect(",")
                    args.append(self.expr())
                self.expect(")")
                return ProdSet(tuple(args))
            if head == "comp":
                return Comp(self._expr_args(1)[0])
            if head == "union":
                left, right = self._expr_args(2)
                return Union(left, right)
            if head == "inter":
                left, right = self._expr_args(2)
                return Inter(left, right)
            if head == "up":
                return Up(self._expr_args(1)[0])
            if head == "down":
                return Down(self._expr_args(1)[0])
            if head == "quot":
                inner, n = self._expr_nat_args()
                return Quot(inner, n)
            if head == "scale":
                inner, n = self._expr_nat_args()
                return Scale(inner, n)
        except PreconditionError as exc:
            raise ParseError(str(exc), start) from exc
        self.pos = start
        raise self.error(f"unknown expression head {head!r}" if head else "expected an expression")

    def _nat_args(self, count: int) -> list[int]:
        self.expect("(")
        args = [self.nat()]
        for _ in range(count - 1):
            self.expect(",")
            args.append(self.nat())
        self.expect(")")
        return args

    def _expr_args(self, count: int) -> list[SetExpr]:
        self.expect("(")
        args = [self.expr()]
        for _ in range(count - 1):
            self.expect(",")
            args.append(self.expr())
        self.expect(")")
        return args

    def _expr_nat_args(self) -> tuple[SetExpr, int]:
        self.expect("(")
        inner = self.expr()
        self.expect(",")
        n = self.nat()
        self.expect(")")
        return inner, n


def parse_expr(text: str) -> SetExpr:
    """Parse an expression; raises ParseError with the failing offset."""
    parser = _Parser(text)
    result = parser.expr()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing input after expression")
    return result
