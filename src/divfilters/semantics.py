"""Evaluation semantics for set expressions.

member() is exact (never Unknown) for every expression that contains no
Down node: divisors of m are finitely many, so upward closure is decidable
whenever the inner set is. Down is an unbounded existential and yields
Proved or UnknownAtBound, never Refuted, except over an explicit set: m is
in down(F) for finite F exactly when m divides an element of F, and that is
decided.

facts(e) gives the structural facts of e in one record: a set of primes,
infinite, finite, upward closed, holding an infinite pairwise-coprime
family, a finite cover, and the elements of an explicit set (a literal,
empty, or a union, intersection or scale of explicit sets). It is built
bottom-up, one rule per node class, from the children's records, and is
memoised. Its rules, like the structural subset rules, are deliberate
under-approximations: a False flag or a None field means no rule applied,
and the callers fall back to bounded search.

_member() dispatches on the exact class of the node: one lookup of type(e)
in the _HANDLERS table gives the private handler for that class, and a class
with no entry raises TypeError. A handler evaluates a child only through the
module-level name _member, never by calling another handler, so a wrapper
installed on that name (a tracer, a counter) sees every evaluation.

A handler returns a verdict and never changes one (see verdict): a
certificate-free answer is the shared PROVED_AT[budget], REFUTED_AT[budget]
or UNKNOWN_AT[budget], and a connective may return a child's verdict as its
own.

To add a node class: declare it in setexpr, syntax included (the only
syntax edit; its sig also gives its field checks), as a final class, since
every lookup is by exact type; write a handler _member_<name>(e, m,
budget) and add the pair to _HANDLERS; add a rule to facts() and a branch
to _range. A class missing from any of the three raises TypeError there. A
branch that ranges a child past the node's own limit needs a rule in
in_bulk too.

member() is the reference semantics. evaluate_range() gives the same states
for every m in [1..L] at once, node by node over whole ranges, and returns
the range it builds: one bytearray of states, byte m being 0, 1 or 2 for m
Refuted, Proved or Unknown; union, inter and comp combine ranges through
translate tables computed from verdict's three_valued_or, _and and _not,
and keep no connectives of their own. _range falls back to member() for
each m, over the range of that node, in two cases (_falls_back): a prodset
node of three or more arguments, and any node whose range would pass the
sieve cap (a quot node reaches L*n, a down node over a set that is not
explicit reaches the budget). in_bulk(e, L, budget) says whether no node of
e takes that fallback, so that evaluate_range asks member nothing; it
judges each child at the limit _range gives it, or at its parent's where
that is larger. A prodset of two arguments is the set of products x*y <= L
of a Proved x in one and y in the other, x != y, built by strided ORs from
the two ranges; its Unknown states follow the search order of
_prodset_member. A range too large to allocate raises BudgetExceededError.

evaluate_range backs the dense bounded scans: enumerate_upto and
is_infinite over [1..L], is_upward_closed and scan() over windows [1..w],
w = 64 growing fourfold up to L, or w = L with a down node (its inner set
spans [1..budget] in any window). scan() asks member about each m instead
where _range would only repeat that work: past the sieve cap, and for a
down node with a budget past it.

is_subset(a, e, budget), the inclusion verdict behind every filter
question, walks a with scan and reads e only at a's Proved members: from one
evaluate_range per window [1..w], w = 64 growing fourfold and at least the
member asked about, up to the budget, while in_bulk says that range asks
member nothing, then by member at each. A scan of inter(a,comp(e)) would
evaluate e where a is Unknown, and there e can raise past the cap.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from itertools import combinations, compress, product

from . import arith
from .errors import BudgetExceededError, PreconditionError
from .setexpr import (
    EMPTY as EMPTY_SINGLETON,
    N as NAT_SINGLETON,
    Comp,
    Down,
    Empty,
    Factorials,
    Inter,
    Level,
    Lit,
    Mult,
    Nat,
    PowSet,
    Primes,
    PrimesGeom,
    PrimesIdx,
    ProdSet,
    Quot,
    Scale,
    SetExpr,
    Union,
    Up,
    children,
    contains_down,
    map_children,
)
from .verdict import (
    _PROVED,
    _REFUTED,
    _UNKNOWN,
    DEFAULT_BUDGET,
    PROVED_AT,
    REFUTED_AT,
    UNKNOWN_AT,
    ProofState,
    Verdict,
    proved,
    refuted,
    three_valued_and,
    three_valued_not,
    three_valued_or,
    unknown,
)


def _iroot(m: int, n: int) -> int:
    """Largest x with x**n <= m, in integer arithmetic for every size of m."""
    if n == 1 or m < 2:
        return m
    if n == 2:
        return math.isqrt(m)
    # Newton's iteration from 2**ceil(bits/n), which is above the root,
    # decreases strictly until it reaches the floor of the root
    x = 1 << -(-m.bit_length() // n)
    while True:
        y = ((n - 1) * x + m // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


def _is_factorial(m: int) -> int | None:
    """Return k with k! == m, or None."""
    f, k = 1, 1
    while f < m:
        k += 1
        f *= k
    return k if f == m else None


# --- structural facts ----------------------------------------------------------

class Facts(namedtuple(
    "Facts", "primes infinite finite up_closed antichain cover elements",
    defaults=(False, False, False, False, False, None, None),
)):
    """What the shape of an expression proves about the set it denotes.

    Each flag is a proof when True and means "no rule applied" when False:
    primes, every member is prime; infinite; finite; up_closed, closed under
    taking multiples; antichain, holds an infinite pairwise-coprime family.
    cover is a finite set of naturals >= 2 such that every member has a
    divisor in it, and elements the members of an explicit set; None when
    no rule applies.
    """

    __slots__ = ()


_PRIME_FACTS = Facts(primes=True, infinite=True, antichain=True)


@lru_cache(maxsize=4096)
def facts(e: SetExpr) -> Facts:
    """The structural facts of e, built bottom-up from its children's."""
    t = type(e)
    if t in (Primes, PrimesIdx, PrimesGeom):
        return _PRIME_FACTS
    if t is Nat:
        return Facts(infinite=True, up_closed=True)
    if t is Empty:
        return Facts(finite=True, up_closed=True, cover=frozenset({2}), elements=frozenset())
    if t is Mult:
        return Facts(infinite=True, up_closed=True,
                     cover=frozenset({e.n}) if e.n >= 2 else None)
    if t is Lit:
        # past the sieve cap squared is_prime can only say False or raise
        primes = all(math.isqrt(x) <= arith.DEFAULT_SIEVE_CAP and arith.is_prime(x)
                     for x in e.elements)
        return Facts(primes=primes, finite=True, elements=e.elements,
                     cover=None if 1 in e.elements else e.elements)
    if t is Level:
        return Facts(infinite=e.n >= 1)
    if t is Factorials:
        return Facts(infinite=True)
    if t is Comp:
        return Facts()
    if t in (Union, Inter):
        a, b = facts(e.left), facts(e.right)
        both_cover = a.cover is not None and b.cover is not None
        both_explicit = a.elements is not None and b.elements is not None
        if t is Union:
            return Facts(
                primes=a.primes and b.primes,
                infinite=a.infinite or b.infinite,
                finite=a.finite and b.finite,
                up_closed=a.up_closed and b.up_closed,
                antichain=a.antichain or b.antichain,
                cover=a.cover | b.cover if both_cover else None,
                elements=a.elements | b.elements if both_explicit else None,
            )
        return Facts(
            primes=a.primes or b.primes,
            finite=a.finite or b.finite,
            up_closed=a.up_closed and b.up_closed,
            cover=a.cover if a.cover is not None else b.cover,
            elements=a.elements & b.elements if both_explicit else None,
        )
    if t is PowSet:
        base = facts(e.base)
        prime_infinite = base.primes and base.infinite
        return Facts(infinite=prime_infinite, finite=base.finite,
                     antichain=prime_infinite, cover=base.cover)
    if t is ProdSet:
        args = [facts(a) for a in e.args]
        prime_infinite = all(a.primes and a.infinite for a in args)
        return Facts(infinite=prime_infinite, finite=all(a.finite for a in args),
                     antichain=prime_infinite,
                     cover=next((a.cover for a in args if a.cover is not None), None))
    if t not in (Up, Down, Quot, Scale):
        raise TypeError(f"unknown node {e!r}")
    inner = facts(e.inner)
    if t is Up:
        return Facts(infinite=inner.infinite, up_closed=True,
                     antichain=inner.antichain, cover=inner.cover)
    if t is Down:
        return Facts(infinite=inner.infinite, finite=inner.finite, antichain=inner.antichain)
    if t is Quot:
        return Facts(finite=inner.finite)
    return Facts(  # Scale
        infinite=inner.infinite,
        finite=inner.finite,
        antichain=e.n == 1 and inner.antichain,
        cover=frozenset({e.n}) if e.n >= 2 else inner.cover,
        elements=None if inner.elements is None else frozenset(e.n * x for x in inner.elements),
    )


def syntactic_cover(e: SetExpr) -> frozenset[int] | None:
    """The structural cover of e (see Facts.cover); None if no rule applies."""
    return facts(e).cover


def member(e: SetExpr, m: int, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Three-valued membership of m in the set denoted by e."""
    if budget < 1:
        raise PreconditionError("budget must be >= 1")
    if m < 1:
        raise PreconditionError("membership is defined on naturals >= 1")
    return _member(e, m, budget)


def _member(e: SetExpr, m: int, budget: int) -> Verdict:
    try:
        handler = _HANDLERS[type(e)]
    except KeyError:
        raise TypeError(f"unknown node {e!r}") from None
    return handler(e, m, budget)


# One handler per node class, reached only through _member (see the module
# docstring). Verdicts are values: a certificate-free one is the shared
# X_AT[budget], and a handler may return a child's verdict as its own.


def _member_mult(e: Mult, m: int, budget: int) -> Verdict:
    return PROVED_AT[budget] if m % e.n == 0 else REFUTED_AT[budget]


def _member_lit(e: Lit, m: int, budget: int) -> Verdict:
    return PROVED_AT[budget] if m in e.elements else REFUTED_AT[budget]


def _member_nat(e: Nat, m: int, budget: int) -> Verdict:
    return PROVED_AT[budget]


def _member_empty(e: Empty, m: int, budget: int) -> Verdict:
    return REFUTED_AT[budget]


def _member_primes(e: Primes, m: int, budget: int) -> Verdict:
    return PROVED_AT[budget] if arith.is_prime(m) else REFUTED_AT[budget]


def _member_level(e: Level, m: int, budget: int) -> Verdict:
    return PROVED_AT[budget] if arith.omega(m) == e.n else REFUTED_AT[budget]


def _member_primes_idx(e: PrimesIdx, m: int, budget: int) -> Verdict:
    if not arith.is_prime(m):
        return REFUTED_AT[budget]
    idx = arith.prime_index(m)
    if (idx - e.r) % e.m == 0:
        return Verdict(_PROVED, budget, idx)
    return REFUTED_AT[budget]


def _member_primes_geom(e: PrimesGeom, m: int, budget: int) -> Verdict:
    if not arith.is_prime(m):
        return REFUTED_AT[budget]
    idx = arith.prime_index(m)
    if idx % e.c != 0:
        return REFUTED_AT[budget]
    v = idx // e.c
    while v % e.q == 0:
        v //= e.q
    return Verdict(_PROVED, budget, idx) if v == 1 else REFUTED_AT[budget]


def _member_factorials(e: Factorials, m: int, budget: int) -> Verdict:
    k = _is_factorial(m)
    return Verdict(_PROVED, budget, k) if k is not None else REFUTED_AT[budget]


def _member_up(e: Up, m: int, budget: int) -> Verdict:
    inner = e.inner
    # common fast shapes: finite generator set / principal generator
    if type(inner) is Lit:
        elements = inner.elements
        if len(elements) == 1:
            (s,) = elements
            if m % s == 0:
                return Verdict(_PROVED, budget, s)
            return REFUTED_AT[budget]
        for s in sorted(elements):
            if m % s == 0:
                return Verdict(_PROVED, budget, s)
        return REFUTED_AT[budget]
    if type(inner) is Mult:
        n = inner.n
        return Verdict(_PROVED, budget, n) if m % n == 0 else REFUTED_AT[budget]
    factors = inner.args if type(inner) is ProdSet else (inner,)
    if all(facts(a).primes for a in factors):
        # every member of inner is a product of len(factors) distinct primes,
        # and inner refutes every other divisor of m before it evaluates
        # anything else: ask only about those products, ascending like the
        # divisors
        primes = sorted(arith.prime_support(m))
        candidates = sorted(map(math.prod, combinations(primes, len(factors))))
    else:
        candidates = arith.divisors(m)
    saw_unknown = False
    for d in candidates:
        state = _member(inner, d, budget).state
        if state is _PROVED:
            return Verdict(_PROVED, budget, d)
        if state is _UNKNOWN:
            saw_unknown = True
    return UNKNOWN_AT[budget] if saw_unknown else REFUTED_AT[budget]


def _member_down(e: Down, m: int, budget: int) -> Verdict:
    elements = facts(e.inner).elements
    if elements is not None:
        least = min((x for x in elements if x % m == 0), default=None)
        if least is None:
            return REFUTED_AT[budget]
        return Verdict(_PROVED, budget, least)
    if type(e.inner) is Factorials:
        # the first factorial divisible by m is the least multiple of m the
        # scan below would find: walk the factorials up to the budget instead
        f, k = 1, 1
        while f <= budget:
            if f % m == 0:
                return Verdict(_PROVED, budget, f)
            k += 1
            f *= k
        return UNKNOWN_AT[budget]
    k = 1
    while k * m <= budget:
        if _member(e.inner, k * m, budget).state is _PROVED:
            return Verdict(_PROVED, budget, k * m)
        k += 1
    # the search space is unbounded above; finiteness cannot be refuted
    return UNKNOWN_AT[budget]


def _member_quot(e: Quot, m: int, budget: int) -> Verdict:
    return _member(e.inner, m * e.n, budget)


def _member_scale(e: Scale, m: int, budget: int) -> Verdict:
    if m % e.n != 0:
        return REFUTED_AT[budget]
    return _member(e.inner, m // e.n, budget)


def _member_comp(e: Comp, m: int, budget: int) -> Verdict:
    return three_valued_not(_member(e.inner, m, budget))


def _member_union(e: Union, m: int, budget: int) -> Verdict:
    left = _member(e.left, m, budget)
    if left.state is _PROVED:
        return left
    return three_valued_or(left, _member(e.right, m, budget))


def _member_inter(e: Inter, m: int, budget: int) -> Verdict:
    left = _member(e.left, m, budget)
    if left.state is _REFUTED:
        return left
    return three_valued_and(left, _member(e.right, m, budget))


def _member_pow(e: PowSet, m: int, budget: int) -> Verdict:
    x = _iroot(m, e.n)
    if x**e.n != m:
        return REFUTED_AT[budget]
    v = _member(e.base, x, budget)
    if v.state is _PROVED:
        return Verdict(_PROVED, budget, x)
    return v


def _prodset_member(e: ProdSet, m: int, budget: int) -> Verdict:
    args = e.args
    k = len(args)
    if k == 1:
        return _member(args[0], m, budget)
    if all(facts(a).primes for a in args):
        # m must be a product of k distinct primes matched one per argument
        fac = arith.factorize(m)
        if any(exp != 1 for _, exp in fac.factors) or len(fac.factors) != k:
            return REFUTED_AT[budget]
        primes = [p for p, _ in fac.factors]
        states = [[_member(a, p, budget).state for p in primes] for a in args]
        matched = _match(primes, states, (_PROVED,))
        if matched is not None:
            return proved(budget, matched)
        # a matching that needs an Unknown verdict may exist at a larger budget
        if any(_UNKNOWN in row for row in states) and \
                _match(primes, states, (_PROVED, _UNKNOWN)) is not None:
            return UNKNOWN_AT[budget]
        return REFUTED_AT[budget]
    return _prodset_backtrack(args, m, budget)


def _match(primes: list[int], states: list[list[ProofState]], accepted: tuple):
    """Assign each argument a distinct prime from `primes` whose verdict,
    states[argument][prime index], is in `accepted`; None if none exists."""
    k = len(states)
    accept = [[p for p, s in zip(primes, row) if s in accepted] for row in states]
    order = sorted(range(k), key=lambda i: len(accept[i]))
    used: set[int] = set()
    chosen: dict[int, int] = {}

    def go(j: int) -> bool:
        if j == k:
            return True
        i = order[j]
        for p in accept[i]:
            if p not in used:
                used.add(p)
                chosen[i] = p
                if go(j + 1):
                    return True
                used.discard(p)
                del chosen[i]
        return False

    if go(0):
        return tuple(chosen[i] for i in range(k))
    return None


def _prodset_backtrack(args: tuple[SetExpr, ...], m: int, budget: int) -> Verdict:
    """General product matching: factor m into pairwise-distinct parts, one
    member per argument set, with three-valued propagation."""
    saw_unknown = False

    def go(i: int, remaining: int, used: tuple[int, ...]):
        nonlocal saw_unknown
        if i == len(args) - 1:
            if remaining in used:
                return None
            v = _member(args[i], remaining, budget)
            if v.proved:
                return used + (remaining,)
            if v.unknown:
                saw_unknown = True
            return None
        for d in arith.divisors(remaining):
            if d in used:
                continue
            v = _member(args[i], d, budget)
            if v.unknown:
                saw_unknown = True
                continue
            if v.refuted:
                continue
            result = go(i + 1, remaining // d, used + (d,))
            if result is not None:
                return result
        return None

    witness = go(0, m, ())
    if witness is not None:
        return proved(budget, witness)
    return UNKNOWN_AT[budget] if saw_unknown else REFUTED_AT[budget]


_HANDLERS = {
    Mult: _member_mult,
    Lit: _member_lit,
    Nat: _member_nat,
    Empty: _member_empty,
    Primes: _member_primes,
    Level: _member_level,
    PrimesIdx: _member_primes_idx,
    PrimesGeom: _member_primes_geom,
    Factorials: _member_factorials,
    Up: _member_up,
    Down: _member_down,
    Quot: _member_quot,
    Scale: _member_scale,
    Comp: _member_comp,
    Union: _member_union,
    Inter: _member_inter,
    PowSet: _member_pow,
    ProdSet: _prodset_member,
}


# --- whole-range evaluation ----------------------------------------------------

# Byte m of a range is the index here of m's state. A connective's translate
# table maps byte 3*a + b (a, for not) to its verdict's state.
_STATES = (_REFUTED, _PROVED, _UNKNOWN)
_VERDICTS = (REFUTED_AT[1], PROVED_AT[1], UNKNOWN_AT[1])
_OR, _AND, _NOT = (
    bytes(_STATES.index(connective(*operands).state)
          for operands in product(_VERDICTS, repeat=arity)).ljust(256, b"\0")
    for connective, arity in ((three_valued_or, 2), (three_valued_and, 2), (three_valued_not, 1)))
# 0/1 bytes: is m Proved, Unknown, not Refuted
_IS_PROVED = bytes.maketrans(b"\2", b"\0")
_IS_UNKNOWN = bytes.maketrans(b"\1\2", b"\0\1")
_IS_LIVE = bytes.maketrans(b"\2", b"\1")
# one more, for counting Omega in a level range
_SUCC = bytes(range(1, 256)) + b"\xff"


def evaluate_range(e: SetExpr, limit: int, budget: int = DEFAULT_BUDGET) -> bytearray:
    """The states of member(e, m, budget) for every m in [1..limit] at once:
    a bytearray of length limit + 1 whose byte m is 0, 1 or 2 for m
    Refuted, Proved or UnknownAtBound. Byte 0 is always 0."""
    if budget < 1:
        raise PreconditionError("budget must be >= 1")
    if limit < 0:
        raise PreconditionError("range limit must be >= 0")
    return _range(e, limit, budget)


def _zeros(limit: int) -> bytearray:
    """limit + 1 zero bytes, the one way a range array is allocated: a
    range too large to hold raises BudgetExceededError."""
    try:
        return bytearray(limit + 1)
    except (MemoryError, OverflowError):
        raise BudgetExceededError(f"a range of {limit} points does not fit in memory") from None


def _bits(a: bytearray) -> int:
    return int.from_bytes(a, "little")


def _bytes(x: int, limit: int) -> bytearray:
    return bytearray(x.to_bytes(limit + 1, "little"))


def _merge(proved: int, unknown: int, limit: int) -> bytearray:
    """The states of [0..limit] from the bit patterns of its Proved and its
    Unknown points; a point in both is Proved."""
    return _bytes(proved | ((unknown & ~proved) << 1), limit)


def _multiples(states: bytearray, value: int, covered: bytearray | None = None) -> bytearray:
    """1 at every multiple of each d with states[d] == value. A d whose
    multiples are all marked already, or all lie in `covered`, is skipped."""
    limit = len(states) - 1
    out = _zeros(limit)
    d = states.find(value)
    while d != -1:
        if not (out[d] or (covered is not None and covered[d])):
            out[d::d] = b"\1" * (limit // d)
        d = states.find(value, d + 1)
    return out


def _pairs(xs: bytearray, ys: bytearray) -> int:
    """The bit pattern of {x*y <= L : xs[x] == ys[y] == 1, x != y}, for
    L = len(xs) - 1, walking the multiples of each x on the sparser side."""
    if xs.count(1) > ys.count(1):
        xs, ys = ys, xs
    limit = len(xs) - 1
    out = _zeros(limit)
    x = xs.find(1)
    while x != -1:
        n = limit // x
        row = ys[1 : n + 1]
        if x <= n:
            row[x - 1] = 0
        if 1 in row:
            out[x::x] = (_bits(out[x::x]) | _bits(row)).to_bytes(n, "little")
        x = xs.find(1, x + 1)
    return _bits(out)


def _pointwise_range(e: SetExpr, limit: int, budget: int) -> bytearray:
    states = _zeros(limit)
    for m in range(1, limit + 1):
        states[m] = _STATES.index(_member(e, m, budget).state)
    return states


def _falls_back(e: SetExpr, limit: int, budget: int) -> bool:
    """Does _range evaluate the node e itself pointwise? The fallback rule
    of the module docstring."""
    reach = limit
    if isinstance(e, Down) and facts(e.inner).elements is None:
        reach = max(limit, budget)
    elif isinstance(e, Quot):
        reach = limit * e.n
    return reach > arith.DEFAULT_SIEVE_CAP or (isinstance(e, ProdSet) and len(e.args) > 2)


def in_bulk(e: SetExpr, limit: int, budget: int = DEFAULT_BUDGET) -> bool:
    """Does evaluate_range(e, limit, budget) evaluate every node of e in
    bulk, so that it asks member nothing? A child is judged at the limit
    _range gives it, or at its parent's where that is larger (scale, pow),
    which can only answer False more often."""
    if _falls_back(e, limit, budget):
        return False
    if isinstance(e, Quot):
        return in_bulk(e.inner, limit * e.n, budget)
    if isinstance(e, Down) and facts(e.inner).elements is None:
        return in_bulk(e.inner, budget, budget)
    return all(in_bulk(c, limit, budget) for c in children(e))


def _range(e: SetExpr, limit: int, budget: int) -> bytearray:
    if _falls_back(e, limit, budget):
        return _pointwise_range(e, limit, budget)
    states = _zeros(limit)
    if limit == 0 or isinstance(e, Empty):
        return states
    if isinstance(e, Mult):
        states[e.n :: e.n] = b"\1" * (limit // e.n)
    elif isinstance(e, Lit):
        for x in e.elements:
            if x <= limit:
                states[x] = 1
    elif isinstance(e, Nat):
        states[1:] = b"\1" * limit
    elif isinstance(e, (Primes, PrimesIdx, PrimesGeom)):
        primes = arith.primes_upto(limit)
        if isinstance(e, PrimesIdx):
            primes = primes[e.r - 1 :: e.m]
        elif isinstance(e, PrimesGeom):
            picked, idx = [], e.c
            while idx <= len(primes):
                picked.append(primes[idx - 1])
                idx *= e.q
            primes = picked
        for p in primes:
            states[p] = 1
    elif isinstance(e, Level):
        # byte m counts the prime powers that divide m, which is Omega(m)
        for p in arith.primes_upto(limit):
            q = p
            while q <= limit:
                states[q::q] = states[q::q].translate(_SUCC)
                q *= p
        states = states.translate(bytes(int(v == e.n) for v in range(256)))
        states[0] = 0
    elif isinstance(e, Factorials):
        f, k = 1, 1
        while f <= limit:
            states[f] = 1
            k += 1
            f *= k
    elif isinstance(e, Up):
        inner = _range(e.inner, limit, budget)
        p = _multiples(inner, 1)
        states = _merge(_bits(p), _bits(_multiples(inner, 2, p)), limit)
    elif isinstance(e, Down):
        elements = facts(e.inner).elements
        if elements is not None:
            # exact: the divisors of the elements, found without factoring
            for m in range(1, min(limit, max(elements, default=0)) + 1):
                if any(x % m == 0 for x in elements):
                    states[m] = 1
        else:
            # the search space is unbounded above; finiteness cannot be refuted
            states[1:] = b"\2" * limit
            inner = _range(e.inner, budget, budget)
            for m in range(1, min(limit, budget) + 1):
                if 1 in inner[m::m]:
                    states[m] = 1
    elif isinstance(e, Quot):
        states[1:] = _range(e.inner, limit * e.n, budget)[e.n :: e.n]
    elif isinstance(e, Scale):
        states[e.n :: e.n] = _range(e.inner, limit // e.n, budget)[1:]
    elif isinstance(e, Comp):
        states[1:] = _range(e.inner, limit, budget)[1:].translate(_NOT)
    elif isinstance(e, (Union, Inter)):
        left, right = (_bits(_range(side, limit, budget)) for side in (e.left, e.right))
        # a state byte is at most 2, so byte m of 3*left + right is 3*a + b
        states = _bytes(3 * left + right, limit).translate(
            _OR if isinstance(e, Union) else _AND)
    elif isinstance(e, PowSet):
        root = _iroot(limit, e.n)
        base = _range(e.base, root, budget)
        for x in range(1, root + 1):
            states[x**e.n] = base[x]
    elif isinstance(e, ProdSet):
        if len(e.args) == 1:
            return _range(e.args[0], limit, budget)
        a, b = (_range(arg, limit, budget) for arg in e.args)
        ap, bp = a.translate(_IS_PROVED), b.translate(_IS_PROVED)
        if all(facts(arg).primes for arg in e.args):
            # _match: m = x*y for distinct primes, each Proved or Unknown
            u = _pairs(a.translate(_IS_LIVE), b.translate(_IS_LIVE))
        else:
            # _prodset_backtrack: an Unknown divisor of m in the first
            # argument, or a Proved one whose cofactor is Unknown in the second
            u = _bits(_multiples(a, 2)) | _pairs(ap, b.translate(_IS_UNKNOWN))
        states = _merge(_pairs(ap, bp), u, limit)
    else:
        raise TypeError(f"unknown node {e!r}")
    return states


def enumerate_upto(
    e: SetExpr, limit: int, budget: int = DEFAULT_BUDGET
) -> tuple[list[int], bool]:
    """Ascending Proved members of e up to `limit`, plus a completeness flag.

    The flag is False iff some m <= limit evaluated UnknownAtBound.
    """
    if limit > budget:
        raise PreconditionError("enumeration limit must not exceed the budget")
    states = _range(e, max(limit, 0), budget)
    return list(compress(range(len(states)), states.translate(_IS_PROVED))), 2 not in states


# --- bounded scans ------------------------------------------------------------

def _windows(e: SetExpr, limit: int):
    """The window policy of the module docstring, for a scan of [1..limit]."""
    window = limit if contains_down(e) else min(64, limit)
    yield window
    while window < limit:
        window = min(4 * window, limit)
        yield window


def scan(e: SetExpr, limit: int, budget: int = DEFAULT_BUDGET):
    """Yield (m, proved), ascending, for each m <= limit that
    member(e, m, budget) does not refute; proved is False for Unknown. A
    caller that stops early evaluates nothing past the window it stops in."""
    if limit >= 1 and budget < 1:
        raise PreconditionError("budget must be >= 1")
    cap = arith.DEFAULT_SIEVE_CAP
    if budget > cap and contains_down(e):
        cap = 0  # the module docstring's case for member alone
    done = 0
    for window in _windows(e, max(limit, 0)):
        if window > cap:
            break
        states = _range(e, window, budget)
        live = states.translate(_IS_LIVE)
        m = live.find(1, done + 1)
        while m != -1:
            yield m, states[m] == 1
            m = live.find(1, m + 1)
        done = window
    for m in range(done + 1, limit + 1):
        state = _member(e, m, budget).state
        if state is not _REFUTED:
            yield m, state is _PROVED


def is_subset(a: SetExpr, e: SetExpr, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Is a <= e? Proved by a structural rule, Refuted at the least Proved
    member of a up to the budget that e refutes, Unknown otherwise."""
    if structurally_subset(a, e, budget):
        return proved(budget, "structural")
    window = 0
    for b, is_proved in scan(a, budget, budget):
        if not is_proved:
            continue
        if b > window:
            window = min(max(4 * window, 64, b), budget)
            # False stays False as the window grows: member to the end
            states = evaluate_range(e, window, budget) if in_bulk(e, window, budget) else None
        refutes = states[b] == 0 if states is not None else _member(e, b, budget).refuted
        if refutes:
            return refuted(budget, b)
    return unknown(budget)


def is_upward_closed(e: SetExpr, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Is the denoted set closed under taking multiples?"""
    if facts(e).up_closed:
        return proved(budget, "structural")
    # The certificate is the first pair (m, km) in m-then-k order, over the
    # windows of _windows. A pair whose m is the least Proved member is
    # final in any window; any other pair only in the whole range, where a
    # smaller m may have a refuted multiple past the window.
    limit = max(budget, 0)
    for window in _windows(e, limit):
        states = _range(e, window, budget)
        least = m = states.find(1)
        while m != -1:
            i = states[2 * m :: m].find(0)
            if i != -1:
                if window == limit or m == least:
                    return refuted(budget, (m, (i + 2) * m))
                break
            m = states.find(1, m + 1)
    return unknown(budget)


# --- infinitude -------------------------------------------------------------

def is_infinite(e: SetExpr, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Is the denoted set infinite? Decided structurally or left Unknown."""
    shape = facts(e)
    if shape.infinite:
        return proved(budget, "structural")
    if shape.finite:
        return refuted(budget, "structural")
    return unknown(budget, _range(e, max(budget, 0), budget).count(1))


# --- Up(B)/m case rule for finite prime B ------------------------------------

def quotient_case_rule(primes: frozenset[int] | set[int], m: int) -> SetExpr:
    """Collapse Up({primes})/m to either N or Up({primes}).

    The quotient equals N exactly when some listed prime divides m.
    """
    if m < 1:
        raise PreconditionError("m must be >= 1")
    if not primes:
        raise PreconditionError("B must hold at least one prime")
    bad = [p for p in primes if not arith.is_prime(p)]
    if bad:
        raise PreconditionError(f"non-prime elements in B: {sorted(bad)}")
    if any(m % p == 0 for p in primes):
        return Nat()
    return Up(Lit(frozenset(primes)))


# --- structural subset proofs -------------------------------------------------

def simplify(e: SetExpr) -> SetExpr:
    """Bottom-up rewriting to a small canonical-ish form; used so the
    structural subset rules can fire through Scale/Quot/Up wrappers.
    Rewrites preserve the denoted set exactly."""
    e = map_children(e, simplify)
    if isinstance(e, Up) and facts(e.inner).up_closed:
        return e.inner
    if isinstance(e, Scale):
        if e.n == 1:
            return e.inner
        if isinstance(e.inner, (Union, Inter)):
            # n(A op B) = nA op nB: both sides require n | x and x/n in each part
            kind = type(e.inner)
            return kind(
                simplify(Scale(e.inner.left, e.n)),
                simplify(Scale(e.inner.right, e.n)),
            )
        if isinstance(e.inner, Mult):
            return Mult(e.inner.n * e.n)
        if isinstance(e.inner, Lit):
            return Lit(frozenset(e.n * x for x in e.inner.elements))
        if isinstance(e.inner, Scale):
            return Scale(e.inner.inner, e.inner.n * e.n)
        if isinstance(e.inner, Nat):
            return Mult(e.n)
        if isinstance(e.inner, Empty):
            return EMPTY_SINGLETON
    if isinstance(e, Quot):
        if e.n == 1:
            return e.inner
        if isinstance(e.inner, Mult):
            return Mult(e.inner.n // math.gcd(e.inner.n, e.n))
        if isinstance(e.inner, Lit):
            elems = frozenset(x // e.n for x in e.inner.elements if x % e.n == 0)
            return Lit(elems) if elems else EMPTY_SINGLETON
        if isinstance(e.inner, Quot):
            return Quot(e.inner.inner, e.inner.n * e.n)
        if isinstance(e.inner, (Nat, Empty)):
            return e.inner
        if isinstance(e.inner, Up) and isinstance(e.inner.inner, Lit):
            gens = e.inner.inner.elements
            if any(e.n % s == 0 for s in gens):
                return NAT_SINGLETON
            if facts(e.inner.inner).primes:
                # primes not dividing n are coprime to it: s | m*n iff s | m
                return e.inner
    return e


def _as_up(e: SetExpr) -> Up | None:
    """View e as an upward closure when one is syntactically evident."""
    if isinstance(e, Up):
        return e
    if isinstance(e, Mult):
        return Up(Lit(frozenset({e.n})))
    if isinstance(e, Nat):
        return Up(Lit(frozenset({1})))
    return None


def structurally_subset(a: SetExpr, b: SetExpr, budget: int = DEFAULT_BUDGET, _depth: int = 0) -> bool:
    """True when a documented structural rule proves a <= b (set inclusion).

    False means "no rule applied", never "refuted".
    """
    if _depth > 40:
        return False
    if _depth == 0:
        a, b = simplify(a), simplify(b)
    if a == b:
        return True
    if isinstance(b, Nat):
        return True
    if isinstance(a, Empty):
        return True
    sub = lambda x, y: structurally_subset(x, y, budget, _depth + 1)
    if isinstance(a, Lit):
        return all(_member(b, x, budget).proved for x in a.elements)
    if isinstance(a, Union):
        if sub(a.left, b) and sub(a.right, b):
            return True
    if isinstance(a, Inter):
        if sub(a.left, b) or sub(a.right, b):
            return True
    if isinstance(b, Inter):
        if sub(a, b.left) and sub(a, b.right):
            return True
    if isinstance(b, Union):
        if sub(a, b.left) or sub(a, b.right):
            return True
    a_up, b_up = _as_up(a), _as_up(b)
    if b_up is not None:
        y = b_up.inner
        if isinstance(y, Lit) and 1 in y.elements:
            return True  # 1^ is all of N
        if a_up is not None and sub(a_up.inner, b_up):
            return True
        if sub(a, y):
            return True
        if isinstance(a, ProdSet):
            if any(arg == y for arg in a.args):
                return True
            if isinstance(y, ProdSet) and _is_prefix(y.args, a.args):
                return True
        if isinstance(a, PowSet) and a.base == y:
            return True
        if isinstance(a, Scale) and isinstance(y, Scale) and a.n == y.n:
            if sub(a.inner, Up(y.inner)):
                return True
        if isinstance(a, Scale) and isinstance(y, Lit):
            if any(a.n % s == 0 for s in y.elements):
                return True
    if isinstance(a, Scale) and isinstance(b, Scale) and a.n == b.n:
        if sub(a.inner, b.inner):
            return True
    return False


def _is_prefix(short: tuple, long: tuple) -> bool:
    return len(short) <= len(long) and long[: len(short)] == short

