"""The structural-facts pass against the recursive chains it replaced.

Each chain below is the one a field of facts() took over, kept here as the
reference: facts(e) must equal them field for field, on the corpus and on
generated expressions wrapped in every combinator.
"""

from hypothesis import given, settings

from strategies import wide_exprs

from divfilters import load_corpus
from divfilters.antichain import is_n_free
from divfilters.arith import is_prime
from divfilters.errors import BudgetExceededError
from divfilters.semantics import (
    Facts,
    facts,
    is_infinite,
    is_upward_closed,
    syntactic_cover,
)
from divfilters.setexpr import (
    EMPTY,
    P,
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
    Union,
    Up,
    lit,
    parse_expr,
    render,
)
from divfilters.verdict import ProofState


def is_prime_set(e):
    if isinstance(e, (Primes, PrimesIdx, PrimesGeom)):
        return True
    if isinstance(e, Lit):
        return all(is_prime(x) for x in e.elements)
    if isinstance(e, Union):
        return is_prime_set(e.left) and is_prime_set(e.right)
    if isinstance(e, Inter):
        return is_prime_set(e.left) or is_prime_set(e.right)
    return False


def is_infinite_prime_set(e):
    if isinstance(e, (Primes, PrimesIdx, PrimesGeom)):
        return True
    if isinstance(e, Union):
        if not (is_prime_set(e.left) and is_prime_set(e.right)):
            return False
        return is_infinite_prime_set(e.left) or is_infinite_prime_set(e.right)
    return False


def structurally_up_closed(e):
    if isinstance(e, (Nat, Empty, Mult, Up)):
        return True
    if isinstance(e, (Union, Inter)):
        return structurally_up_closed(e.left) and structurally_up_closed(e.right)
    return False


def structurally_infinite(e):
    if isinstance(e, (Nat, Primes, Mult, PrimesIdx, PrimesGeom, Factorials)):
        return True
    if isinstance(e, Level):
        return e.n >= 1
    if isinstance(e, (Up, Down, Scale)):
        return structurally_infinite(e.inner)
    if isinstance(e, Union):
        return structurally_infinite(e.left) or structurally_infinite(e.right)
    if isinstance(e, PowSet):
        return is_infinite_prime_set(e.base)
    if isinstance(e, ProdSet):
        return all(is_infinite_prime_set(a) for a in e.args)
    return False


def structurally_finite(e):
    if isinstance(e, (Empty, Lit)):
        return True
    if isinstance(e, Union):
        return structurally_finite(e.left) and structurally_finite(e.right)
    if isinstance(e, Inter):
        return structurally_finite(e.left) or structurally_finite(e.right)
    if isinstance(e, (Scale, Quot, Down)):
        return structurally_finite(e.inner)
    if isinstance(e, PowSet):
        return structurally_finite(e.base)
    if isinstance(e, ProdSet):
        return all(structurally_finite(a) for a in e.args)
    return False


def reference_cover(e):
    if isinstance(e, Empty):
        return frozenset({2})
    if isinstance(e, Mult):
        return frozenset({e.n}) if e.n >= 2 else None
    if isinstance(e, Lit):
        return None if 1 in e.elements else frozenset(e.elements)
    if isinstance(e, Scale):
        return frozenset({e.n}) if e.n >= 2 else reference_cover(e.inner)
    if isinstance(e, Union):
        left, right = reference_cover(e.left), reference_cover(e.right)
        return left | right if left is not None and right is not None else None
    if isinstance(e, Inter):
        left = reference_cover(e.left)
        return left if left is not None else reference_cover(e.right)
    if isinstance(e, Up):
        return reference_cover(e.inner)
    if isinstance(e, PowSet):
        return reference_cover(e.base)
    if isinstance(e, ProdSet):
        return next((c for c in map(reference_cover, e.args) if c is not None), None)
    return None


def has_infinite_antichain(e):
    if is_infinite_prime_set(e):
        return True
    if isinstance(e, PowSet):
        return is_infinite_prime_set(e.base)
    if isinstance(e, ProdSet):
        return all(is_infinite_prime_set(a) for a in e.args)
    if isinstance(e, Union):
        return has_infinite_antichain(e.left) or has_infinite_antichain(e.right)
    if isinstance(e, (Up, Down)):
        return has_infinite_antichain(e.inner)
    if isinstance(e, Scale) and e.n == 1:
        return has_infinite_antichain(e.inner)
    return False


def literal_elements(e):
    """The elements the `down` rules read before: a literal's, or empty's."""
    if isinstance(e, Lit):
        return e.elements
    if isinstance(e, Empty):
        return frozenset()
    return None


def explicit_finite_elements(e, empty=None):
    """The elements interpolation_check read before, where empty had none;
    with empty=frozenset(), the two notions merged, as facts() has them."""
    if isinstance(e, Lit):
        return e.elements
    if isinstance(e, Empty):
        return empty
    if isinstance(e, (Union, Inter)):
        left = explicit_finite_elements(e.left, empty)
        right = explicit_finite_elements(e.right, empty)
        if left is None or right is None:
            return None
        return left | right if isinstance(e, Union) else left & right
    if isinstance(e, Scale):
        inner = explicit_finite_elements(e.inner, empty)
        return None if inner is None else frozenset(e.n * x for x in inner)
    return None


def reference_primes(e):
    # the old chain raised where a literal's primality passes the sieve cap
    try:
        return is_prime_set(e)
    except BudgetExceededError:
        return False


def check(e):
    expected = Facts(
        primes=reference_primes(e),
        infinite=structurally_infinite(e),
        finite=structurally_finite(e),
        up_closed=structurally_up_closed(e),
        antichain=has_infinite_antichain(e),
        cover=reference_cover(e),
        elements=explicit_finite_elements(e, frozenset()),
    )
    got = facts(e)
    assert got == expected, render(e)
    assert (got.primes and got.infinite) == is_infinite_prime_set(e), render(e)
    assert syntactic_cover(e) == expected.cover
    # the merged notion extends both old ones
    for old in (literal_elements(e), explicit_finite_elements(e)):
        if old is not None:
            assert got.elements == old, render(e)


def wrapped(e, other):
    """e alone and inside every combinator, next to a second expression."""
    yield e
    yield from (Up(e), Down(e), Comp(e), Quot(e, 2), Quot(e, 1))
    yield from (Scale(e, 1), Scale(e, 3), PowSet(e, 1), PowSet(e, 2))
    for x, y in ((e, other), (other, e), (e, P), (P, e), (e, lit(2, 3))):
        yield from (Union(x, y), Inter(x, y), ProdSet((x, y)))
    yield ProdSet((e, P, other))


def test_corpus_facts_equal_the_old_chains():
    corpus = load_corpus()
    for i, e in enumerate(corpus):
        for w in wrapped(e, corpus[(i + 1) % len(corpus)]):
            check(w)


@given(wide_exprs, wide_exprs)
@settings(max_examples=300, deadline=None)
def test_generated_facts_equal_the_old_chains(e, other):
    for w in wrapped(e, other):
        check(w)


def test_explicit_sets():
    assert facts(parse_expr("union({12},{18})")).elements == {12, 18}
    assert facts(parse_expr("inter({12,18},{18,30})")).elements == {18}
    assert facts(parse_expr("union(empty,scale({3,5},4))")).elements == {12, 20}
    assert facts(parse_expr("union({3},mult(2))")).elements is None
    assert facts(EMPTY).elements == frozenset()


def test_undecided_primality_is_no_rule():
    # 1000036000099 = 1000003 * 1000033: both factors pass the 10^6 sieve cap
    big = 1000036000099
    assert not facts(lit(big)).primes
    e = parse_expr(f"union({{{big}}},mult(2))")
    assert facts(e).cover == {2, big}
    # the answers the separate chains gave, which never asked its primality
    for budget in (100, 10**4):
        assert is_upward_closed(e, budget).state is ProofState.UNKNOWN
        v = is_infinite(e, budget)
        assert (v.state, v.certificate) == (ProofState.PROVED, "structural")
        v = is_n_free(e, budget)
        assert v.state is ProofState.REFUTED
        assert v.certificate.covers == {2, big} and v.certificate.structural
    assert syntactic_cover(e) == {2, big}
