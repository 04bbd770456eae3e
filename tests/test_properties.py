import math

from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import oracle_set
from strategies import exprs, wide_exprs

from divfilters.antichain import max_strong_antichain
from divfilters.filters import (
    divides_tilde,
    filter_member,
    make_filter,
    principal,
    product_member,
)
from divfilters.semantics import member, simplify
from divfilters.setexpr import Lit, Mult, Quot, Up, parse_expr, render

BUDGET = 10**4


@given(exprs, st.integers(1, 400))
@settings(max_examples=120, deadline=None)
def test_member_matches_oracle(e, m):
    v = member(e, m, BUDGET)
    assert v.decided  # no Down in the generated fragment
    assert v.proved == (m in oracle_set(render(e), m))


@given(exprs)
@settings(max_examples=60, deadline=None)
def test_parse_render_roundtrip(e):
    assert parse_expr(render(e)) == e


@given(exprs, st.integers(1, 300))
@settings(max_examples=80, deadline=None)
def test_up_idempotent(e, m):
    assert member(Up(Up(e)), m, BUDGET).proved == member(Up(e), m, BUDGET).proved


@given(exprs, st.integers(1, 200), st.integers(1, 5))
@settings(max_examples=80, deadline=None)
def test_quotient_law(e, m, n):
    assert member(Quot(e, n), m, BUDGET).proved == member(e, m * n, BUDGET).proved


@given(exprs, st.integers(1, 300))
@settings(max_examples=80, deadline=None)
def test_simplify_preserves_semantics(e, m):
    assert member(simplify(e), m, BUDGET).proved == member(e, m, BUDGET).proved


@given(exprs, st.integers(1, 200))
@settings(max_examples=60, deadline=None)
def test_membership_in_own_upward_closure(e, m):
    if member(e, m, BUDGET).proved:
        assert member(Up(e), m, BUDGET).proved


@given(exprs, st.integers(10, 80))
@settings(max_examples=30, deadline=None)
def test_greedy_at_most_exact_and_witnesses_coprime(e, bound):
    greedy_size, greedy_cert = max_strong_antichain(e, bound, mode="greedy")
    exact_size, exact_cert = max_strong_antichain(e, bound, mode="exact")
    assert greedy_size <= exact_size
    for cert in (greedy_cert, exact_cert):
        values = list(cert.witness)
        for i, a in enumerate(values):
            assert member(e, a, BUDGET).proved
            for b in values[i + 1 :]:
                assert math.gcd(a, b) == 1


@given(exprs, st.integers(1, 300))
@settings(max_examples=60, deadline=None)
def test_budget_monotonicity(e, m):
    lo = member(e, m, 50)
    hi = member(e, m, BUDGET)
    if lo.decided:
        assert lo.state is hi.state


# Filters for the budget-monotonicity properties: principal ones, and ones
# generated by up to two mult/up sets with small moduli, so that make_filter
# finds a core member (a common multiple) within its default budget.
_generators = st.one_of(
    st.builds(Mult, st.integers(1, 12)),
    st.builds(lambda s: Up(Lit(s)),
              st.frozensets(st.integers(2, 12), min_size=1, max_size=2)),
)
filters = st.one_of(
    st.builds(principal, st.integers(1, 60)),
    st.lists(_generators, min_size=1, max_size=2).map(make_filter),
)
# b1 < b2 <= 300
budget_pairs = st.integers(1, 299).flatmap(
    lambda b1: st.tuples(st.just(b1), st.integers(b1 + 1, 300)))


def _same_if_decided(query, budgets):
    lo, hi = (query(b) for b in budgets)
    if lo.decided:
        assert lo.state is hi.state, (lo, hi)


@given(filters, wide_exprs, budget_pairs)
@settings(max_examples=60, deadline=None)
def test_filter_member_budget_monotone(f, e, budgets):
    _same_if_decided(lambda b: filter_member(f, e, b), budgets)


@given(filters, filters, budget_pairs)
@settings(max_examples=60, deadline=None)
def test_divides_tilde_budget_monotone(f, g, budgets):
    _same_if_decided(lambda b: divides_tilde(f, g, b), budgets)


@given(filters, filters, wide_exprs, budget_pairs)
@settings(max_examples=40, deadline=None)
def test_product_member_budget_monotone(f, g, e, budgets):
    _same_if_decided(lambda b: product_member(f, g, e, b), budgets)
