"""Symbolic descriptions of subsets of N: expression trees over a fixed
atom/combinator vocabulary, plus a parser and a canonical renderer.

Grammar (whitespace-insensitive; renderer emits the canonical no-space form):

    expr := "N" | "P" | "empty" | "factorials"
          | "{" nat ("," nat)* "}"
          | "mult(" nat ")" | "level(" nat0 ")" | "primesIdx(" nat "," nat ")"
          | "primesGeom(" nat "," nat ")"
          | "pow(" expr "," nat ")" | "prodset(" expr ("," expr)* ")"
          | "comp(" expr ")" | "union(" expr "," expr ")" | "inter(" expr "," expr ")"
          | "up(" expr ")" | "down(" expr ")"
          | "quot(" expr "," nat ")" | "scale(" expr "," nat ")"

nat is a natural >= 1 and nat0 a natural >= 0, so level(0) is the set {1}.
primesGeom(c,q) = {i-th prime : i = c*q^t, t >= 0} is an extension atom used
by the tree-scheme almost-disjoint families; everything else follows the
standard vocabulary.

Each node class declares its syntax next to its fields: `head`, its grammar
word ("{" for a literal set, whose arguments sit in braces), `__slots__`,
its fields in order, and `sig`, one argument kind per field: "e" an
expression, "n" a natural >= 1, "z" a natural >= 0. A "+" after the last
kind means one or more, held in a tuple of expressions or a frozenset of
naturals. render, children, map_children, the parser and usage read only
that declaration.

Nodes are plain slotted classes built from the same declaration (see
record.Record): construction takes the fields in order, assignment raises
AttributeError, and two nodes are equal exactly when they have the same
class and equal fields. Equality is syntactic only. A node's hash is
computed on first use and kept in its _hash slot, so hashing it again, as
every memo keyed by expressions does, costs the same at any depth.

The parser accepts nesting up to MAX_DEPTH levels, as counted by depth():
the evaluators and structural rules recurse once or twice per level, and a
deeper input is rejected with a ParseError before it can exhaust the
interpreter's stack.
"""

from __future__ import annotations

import re

from .errors import ParseError, PreconditionError
from .record import Record

MAX_DEPTH = 200

# every node class, in declaration order, which is the order usage lists them
NODE_CLASSES: list[type[SetExpr]] = []


class SetExpr(Record):
    """Base class for all expression nodes."""

    __slots__ = ("_hash",)
    head: str  # set by every node class
    sig = ""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        NODE_CLASSES.append(cls)

    def __hash__(self):
        value = self._hash
        if value is None:
            value = hash(self._values())
            object.__setattr__(self, "_hash", value)
        return value

    def __repr__(self):
        return render(self)


class Nat(SetExpr):
    """All of N."""

    head = "N"
    __slots__ = ()


class Primes(SetExpr):
    """The set P of all primes."""

    head = "P"
    __slots__ = ()


class Empty(SetExpr):
    head = "empty"
    __slots__ = ()


class Factorials(SetExpr):
    """{n! : n in N}."""

    head = "factorials"
    __slots__ = ()


class Lit(SetExpr):
    """An explicit finite set of naturals."""

    head, sig = "{", "n+"
    __slots__ = ("elements",)

    def _check(self):
        if any(not isinstance(x, int) or x < 1 for x in self.elements):
            raise PreconditionError("Lit elements must be naturals >= 1")


def lit(*elements: int) -> Lit:
    return Lit(frozenset(elements))


class Mult(SetExpr):
    """nN = {n*m : m in N}."""

    head, sig = "mult", "n"
    __slots__ = ("n",)

    def _check(self):
        if self.n < 1:
            raise PreconditionError("mult parameter must be >= 1")


class Level(SetExpr):
    """Numbers with exactly n prime factors counted with multiplicity."""

    head, sig = "level", "z"
    __slots__ = ("n",)

    def _check(self):
        if self.n < 0:
            raise PreconditionError("level parameter must be >= 0")


class PrimesIdx(SetExpr):
    """{i-th prime : i == r (mod m)}, 1-based prime index, 1 <= r <= m."""

    head, sig = "primesIdx", "nn"
    __slots__ = ("r", "m")

    def _check(self):
        if self.m < 1 or not (1 <= self.r <= self.m):
            raise PreconditionError("primesIdx requires 1 <= r <= m")


class PrimesGeom(SetExpr):
    """{i-th prime : i = c*q^t, t >= 0}, c >= 1, q >= 2."""

    head, sig = "primesGeom", "nn"
    __slots__ = ("c", "q")

    def _check(self):
        if self.c < 1 or self.q < 2:
            raise PreconditionError("primesGeom requires c >= 1 and q >= 2")


class PowSet(SetExpr):
    """{x^n : x in base}."""

    head, sig = "pow", "en"
    __slots__ = ("base", "n")

    def _check(self):
        if self.n < 1:
            raise PreconditionError("pow exponent must be >= 1")


class ProdSet(SetExpr):
    """{x_1*...*x_k : x_i in args[i], pairwise distinct}, k >= 1."""

    head, sig = "prodset", "e+"
    __slots__ = ("args",)

    def _check(self):
        if len(self.args) < 1:
            raise PreconditionError("prodset needs at least one argument")


class Comp(SetExpr):
    head, sig = "comp", "e"
    __slots__ = ("inner",)


class Union(SetExpr):
    head, sig = "union", "ee"
    __slots__ = ("left", "right")


class Inter(SetExpr):
    head, sig = "inter", "ee"
    __slots__ = ("left", "right")


class Up(SetExpr):
    """Upward closure under divisibility: {m : some a in inner divides m}."""

    head, sig = "up", "e"
    __slots__ = ("inner",)


class Down(SetExpr):
    """Downward closure: {m : m divides some a in inner}. Semi-decidable;
    decided when inner is an explicit set (a literal, empty, or a union,
    intersection or scale of explicit sets)."""

    head, sig = "down", "e"
    __slots__ = ("inner",)


class Quot(SetExpr):
    """inner/n = {m : m*n in inner}."""

    head, sig = "quot", "en"
    __slots__ = ("inner", "n")

    def _check(self):
        if self.n < 1:
            raise PreconditionError("quot divisor must be >= 1")


class Scale(SetExpr):
    """n*inner = {n*e : e in inner}."""

    head, sig = "scale", "en"
    __slots__ = ("inner", "n")

    def _check(self):
        if self.n < 1:
            raise PreconditionError("scale factor must be >= 1")


N = Nat()
P = Primes()
EMPTY = Empty()
FACTORIALS = Factorials()


# (field, kind) pairs of each node class, read from its sig: "e", "n" or
# "z", or "e+" and "n+" for a repeated last kind
_ARGS = {cls: tuple(zip(cls._fields, re.findall(r".\+?", cls.sig))) for cls in NODE_CLASSES}
_BY_HEAD = {cls.head: cls for cls in NODE_CLASSES}


def _brackets(head: str) -> tuple[str, str]:
    return ("{", "}") if head == "{" else (head + "(", ")")


def _args(e: SetExpr) -> tuple[tuple[str, str], ...]:
    try:
        return _ARGS[type(e)]
    except KeyError:
        # not {e!r}: repr renders, which would land here again
        raise TypeError(f"unknown node {type(e).__name__}") from None


def usage(cls: type[SetExpr]) -> str:
    """The form of cls with placeholders, as in quot(e,n) or prodset(e,...):
    an expression shows as e, a natural as its field's name."""
    if not cls.sig:
        return cls.head
    opener, closer = _brackets(cls.head)
    parts = [kind[0] + ",..." if kind[-1] == "+" else "e" if kind == "e" else name
             for name, kind in _ARGS[cls]]
    return opener + ",".join(parts) + closer


def children(e: SetExpr) -> tuple[SetExpr, ...]:
    kids: tuple[SetExpr, ...] = ()
    for name, kind in _args(e):
        if kind == "e":
            kids += (getattr(e, name),)
        elif kind == "e+":
            kids += getattr(e, name)
    return kids


def map_children(e: SetExpr, f) -> SetExpr:
    """e with f applied to each expression child; e itself when it has none."""
    args = _args(e)
    if "e" not in e.sig:
        return e
    values = []
    for name, kind in args:
        value = getattr(e, name)
        if kind == "e":
            value = f(value)
        elif kind == "e+":
            value = tuple(map(f, value))
        values.append(value)
    return type(e)(*values)


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
    parts = []
    for name, kind in _args(e):
        value = getattr(e, name)
        if kind == "e":
            parts.append(render(value))
        elif kind[-1] == "+":
            parts.extend(map(render, value) if kind == "e+" else map(str, sorted(value)))
        else:
            parts.append(str(value))
    if not parts:
        return e.head
    opener, closer = _brackets(e.head)
    return opener + ",".join(parts) + closer


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

    def nat(self, least: int = 1) -> int:
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
        if value < least:
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

    def arg(self, kind: str) -> SetExpr | int:
        if kind == "e":
            return self.expr()
        return self.nat(least=0 if kind == "z" else 1)

    def _node(self) -> SetExpr:
        self.skip_ws()
        start = self.pos
        head = self.word() or ("{" if self.peek() == "{" else "")
        cls = _BY_HEAD.get(head)
        if cls is None:
            self.pos = start
            raise self.error(f"unknown expression head {head!r}" if head else "expected an expression")
        if not cls.sig:
            return cls()
        opener, closer = _brackets(head)
        try:
            self.expect(opener[-1])
            values = []
            for _, kind in _ARGS[cls]:
                if values:
                    self.expect(",")
                value = self.arg(kind[0])
                if kind[-1] == "+":
                    items = [value]
                    while self.peek() == ",":
                        self.expect(",")
                        items.append(self.arg(kind[0]))
                    value = tuple(items) if kind == "e+" else frozenset(items)
                values.append(value)
            self.expect(closer)
            return cls(*values)
        except PreconditionError as exc:
            raise ParseError(str(exc), start) from exc


def parse_expr(text: str) -> SetExpr:
    """Parse an expression; raises ParseError with the failing offset."""
    parser = _Parser(text)
    result = parser.expr()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing input after expression")
    return result
