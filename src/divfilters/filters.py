"""Finitely presented filters on N and the operations on them.

A presentation is either principal at a point n (the filter of all sets
containing n) or generated by finitely many set expressions (the filter of
all supersets of their intersection, the core). A finitely generated filter
is fully determined by its core, so tilde-divisibility F |~ G reduces to:
every element of core(G) has a divisor in core(F), i.e. core(G) <= core(F)^,
which is filter_member(G, up(core(F))).

The other operations are grammar expressions fed to the same scans. The
product F*G of generated filters with cores A and B is the filter generated
by A*B = union(prodset(A,B),pow(inter(A,B),2)). The derived filter D(F)
holds e exactly when F holds {n : nN <= e} = comp(down(comp(e))), which is
e itself when e is upward closed. For a principal H at h, the set A_H(e) =
{m : e/m in H} is quot(e,h).

The syntactic facts these operations consult (upward closed, a prime set,
the elements of an explicit core) come from semantics.facts, and
make_filter's search for a core member runs on semantics.scan. A generated
filter holds e exactly when semantics.is_subset(core, e) holds: every
question above is that one inclusion verdict on other sets.

True free ultrafilters are not finitely presentable and are out of scope;
the operations here are exact on the presentable fragment and return
UnknownAtBound where bounded search cannot decide.
"""

from __future__ import annotations

import math
from itertools import count, takewhile

from . import arith
from .errors import FilterConstructionError, ParseError, PreconditionError
from .record import Record
from .semantics import (
    DEFAULT_BUDGET,
    _as_up,
    enumerate_upto,
    facts,
    is_subset,
    member,
    scan,
)
from .setexpr import (
    Comp,
    Down,
    Inter,
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
    parse_expr,
    parse_natural,
    render,
)
from .verdict import Verdict, proved, refuted, three_valued_or, unknown


class FilterPresentation(Record):
    """principal is True for a principal filter, with point set, and False
    for a generated one, with gens set."""

    __slots__ = ("principal", "core", "point", "gens", "fip_witness")
    _defaults = {"point": None, "gens": (), "fip_witness": None}

    def spec_text(self) -> str:
        if self.principal:
            return f"principal:{self.point}"
        return "gen:[" + ";".join(render(g) for g in self.gens) + "]"

    def __repr__(self):
        return f"FilterPresentation({self.spec_text()})"


def principal(n: int) -> FilterPresentation:
    if n < 1:
        raise PreconditionError("principal point must be >= 1")
    return FilterPresentation(True, Lit(frozenset({n})), point=n, fip_witness=n)


def prime_product(args: tuple[SetExpr, ...], limit: int, budget: int) -> int | None:
    """The product of one distinct prime per argument, for each in turn the
    least p <= limit not taken yet that member(arg, p, budget) proves; None
    if an argument has none. The sieve grows only as far as the walk goes."""
    used: set[int] = set()
    for arg in args:
        primes = takewhile(lambda p: p <= limit, map(arith.nth_prime, count(1)))
        p = next((p for p in primes if p not in used and member(arg, p, budget).proved), None)
        if p is None:
            return None
        used.add(p)
    return math.prod(used)


def _structural_min_member(e: SetExpr, budget: int) -> int | None:
    """A member of e found without scanning, when the shape admits one."""
    if isinstance(e, Nat):
        return 1
    if isinstance(e, Primes):
        return 2
    if isinstance(e, Lit):
        return min(e.elements)
    if isinstance(e, Mult):
        return e.n
    if isinstance(e, PrimesIdx):
        return arith.nth_prime(e.r)
    if isinstance(e, PrimesGeom):
        return arith.nth_prime(e.c)
    if isinstance(e, Up):
        return _structural_min_member(e.inner, budget)
    if isinstance(e, Scale):
        inner = _structural_min_member(e.inner, budget)
        return None if inner is None else e.n * inner
    if isinstance(e, PowSet):
        inner = _structural_min_member(e.base, budget)
        return None if inner is None else inner**e.n
    if isinstance(e, ProdSet) and all(facts(a).primes for a in e.args):
        # the 10**4-th prime, written out so the sieve is not grown to it
        return prime_product(e.args, 104_729, budget)
    return None


def make_filter(
    gens: list[SetExpr] | tuple[SetExpr, ...],
    budget: int = DEFAULT_BUDGET,
) -> FilterPresentation:
    """Build a generated presentation, verifying the finite intersection
    property by exhibiting a member of the core; raise if none is found."""
    gens = tuple(gens)
    if not gens:
        raise PreconditionError("a generated filter needs at least one generator")
    core = gens[0]
    for g in gens[1:]:
        core = Inter(core, g)
    witness = _structural_min_member(core, budget)
    if witness is not None and member(core, witness, budget).proved:
        return FilterPresentation(False, core, gens=gens, fip_witness=witness)
    saw_unknown = False
    for m, is_proved in scan(core, budget, budget):
        if is_proved:
            return FilterPresentation(False, core, gens=gens, fip_witness=m)
        saw_unknown = True
    if saw_unknown:
        raise FilterConstructionError(
            f"core {render(core)} has no member <= {budget} and some verdicts are Unknown"
        )
    raise FilterConstructionError(
        f"core {render(core)} is empty up to budget {budget}; "
        "the presentation fails the finite intersection property"
    )


def parse_filter_spec(text: str, budget: int = DEFAULT_BUDGET) -> FilterPresentation:
    """Parse "principal:6" or "gen:[mult(2);mult(3)]". A ParseError's
    offset counts from the start of text as given."""
    lead = len(text) - len(text.lstrip())
    text = text.strip()
    if text.startswith("principal:"):
        body = text[len("principal:") :]
        at = lead + len("principal:")
        point = parse_natural(body, at)
        if point < 1:
            raise ParseError("principal point must be a natural >= 1", at)
        return principal(point)
    if text.startswith("gen:[") and text.endswith("]"):
        gens, at = [], lead + len("gen:[")
        for part in text[len("gen:[") : -1].split(";"):
            if part.strip():
                try:
                    gens.append(parse_expr(part))
                except ParseError as exc:
                    raise ParseError(exc.message, at + exc.position) from None
            at += len(part) + 1
        if not gens:
            raise ParseError("empty generator list", lead + len("gen:["))
        return make_filter(gens, budget)
    raise ParseError("filter spec must be 'principal:<n>' or 'gen:[e1;e2;...]'", 0)


def filter_member(
    f: FilterPresentation, e: SetExpr, budget: int = DEFAULT_BUDGET
) -> Verdict:
    """Does the set denoted by e belong to the filter? (e belongs iff it
    contains the core.) A refutation names the least core member e refutes."""
    if f.principal:
        return member(e, f.point, budget)
    return is_subset(f.core, e, budget)


def divides_tilde(
    f: FilterPresentation, g: FilterPresentation, budget: int = DEFAULT_BUDGET
) -> Verdict:
    """Tilde-divisibility on presentations: every element of core(G) must
    have a divisor in core(F). Reduces to ordinary divisibility on
    principal points."""
    if f.principal and g.principal:
        if g.point % f.point == 0:
            return proved(budget, (f.point, g.point))
        return refuted(budget, g.point)
    return filter_member(g, Up(f.core), budget)


def product_member(
    f: FilterPresentation,
    g: FilterPresentation,
    e: SetExpr,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """Membership of e in the product filter F*G = {X : {n : X/n in G} in F}.

    For generated F and G with cores A and B, X/n is in G exactly when
    n*B <= X, so X is in F*G exactly when A*B = {ab : a in A, b in B} <= X:
    the product is the filter generated by A*B. The scan inspects the
    products up to the budget.
    """
    if f.principal and g.principal:
        return member(e, f.point * g.point, budget)
    if f.principal:
        return filter_member(g, Quot_of(e, f.point), budget)
    if g.principal:
        return filter_member(f, Quot_of(e, g.point), budget)
    e_up = _as_up(e)
    if e_up is not None and facts(e_up.inner).primes:
        # prime-upward sets collapse the product to a union of the factors
        return three_valued_or(
            filter_member(f, e, budget), filter_member(g, e, budget)
        )
    a, b = f.core, g.core
    # prodset leaves out the products x*x of equal factors; pow puts them back
    core = Union(ProdSet((a, b)), PowSet(Inter(a, b), 2))
    return filter_member(FilterPresentation(False, core, gens=(core,)), e, budget)


def Quot_of(e: SetExpr, n: int) -> SetExpr:
    return e if n == 1 else Quot(e, n)


def d_set(e: SetExpr) -> SetExpr:
    """The set {n : nN <= e}, always upward closed: nN <= e exactly when no
    multiple of n lies outside e, which is comp(down(comp(e))). For an
    upward-closed e it is e itself."""
    if facts(e).up_closed:
        return e
    return Comp(Down(Comp(e)))


def d_member(
    f: FilterPresentation, e: SetExpr, budget: int = DEFAULT_BUDGET
) -> Verdict:
    """Membership of e in the derived filter D(F) = {A : {n : nN <= A} in F}."""
    return filter_member(f, d_set(e), budget)


def scale_filter(f: FilterPresentation, h: int) -> FilterPresentation:
    """The image filter under multiplication by h: core h*core(F).

    Matches the product with the principal filter at h.
    """
    if h < 1:
        raise PreconditionError("scale factor must be >= 1")
    if h == 1:
        return f
    if f.principal:
        return principal(f.point * h)
    core = Scale(f.core, h)
    witness = None if f.fip_witness is None else f.fip_witness * h
    return FilterPresentation(False, core, gens=(core,), fip_witness=witness)


def interpolation_check(
    f: FilterPresentation, g: FilterPresentation, limit: int,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """Finite shadow of the interpolation property on cores: find
    a, b in core(F) and c in core(G) with a != c != b, a | c and c | b."""
    budget = max(budget, limit)
    ef, eg = facts(f.core).elements, facts(g.core).elements
    if ef is not None and eg is not None:
        members_f, members_g = sorted(ef), sorted(eg)
        exhaustive = True
    else:
        members_f, complete_f = enumerate_upto(f.core, limit, budget)
        members_g, complete_g = enumerate_upto(g.core, limit, budget)
        if not (complete_f and complete_g):
            return unknown(budget)
        exhaustive = False
    set_f = set(members_f)
    for c in members_g:
        divs = [a for a in arith.divisors(c) if a in set_f and a != c]
        if not divs:
            continue
        for b in members_f:
            if b != c and b % c == 0:
                return proved(budget, (divs[0], c, b))
    if exhaustive:
        return refuted(budget, "exhaustive over finite cores")
    return unknown(budget)
