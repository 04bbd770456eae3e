import math

from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import oracle_set
from strategies import exprs

from divfilters.antichain import max_strong_antichain
from divfilters.semantics import member, simplify
from divfilters.setexpr import Quot, Up, parse_expr, render

BUDGET = 10**4


@given(exprs, st.integers(1, 400))
@settings(max_examples=120, deadline=None)
def test_member_matches_oracle(e, m):
    v = member(e, m, BUDGET)
    assert v.decided  # no Down in the generated fragment
    assert v.proved == (m in oracle_set(e, m))


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
