"""Whole-range evaluation against the pointwise reference semantics.

evaluate_range and the scans routed through it must give, state for state
and certificate for certificate, what member() gives one m at a time. The
pointwise scans and the old class bound are kept here as the references.
"""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import oracle_set
from strategies import exprs, wide_exprs

from divfilters import antichain, arith, load_corpus
from divfilters.errors import PreconditionError
from divfilters.semantics import (
    _member,
    _structurally_finite,
    _structurally_infinite,
    _structurally_up_closed,
    enumerate_upto,
    evaluate_range,
    is_infinite,
    is_upward_closed,
)
from divfilters.setexpr import (
    Comp,
    Derived,
    Down,
    Inter,
    Lit,
    Mult,
    PowSet,
    Quot,
    Scale,
    Union,
    Up,
    contains_down,
    parse_expr,
    render,
)
from divfilters.verdict import ProofState, proved, refuted, unknown

BUDGET = 10**4
CORPUS = load_corpus()
# exact antichain has no work bound on these two
UNBOUNDED_ANTICHAIN = ("prodset(P,P)", "up(primesIdx(1,2))")


def _bulk_states(e, limit, budget):
    proved_, unknown_ = evaluate_range(e, limit, budget)
    assert len(proved_) == len(unknown_) == limit + 1
    assert proved_[0] == unknown_[0] == 0
    states = []
    for m in range(1, limit + 1):
        assert not (proved_[m] and unknown_[m])
        if proved_[m]:
            states.append(ProofState.PROVED)
        elif unknown_[m]:
            states.append(ProofState.UNKNOWN)
        else:
            states.append(ProofState.REFUTED)
    return states


def _pointwise_states(e, limit, budget):
    return [_member(e, m, budget).state for m in range(1, limit + 1)]


@lru_cache(maxsize=None)
def _corpus_reference(index):
    return _pointwise_states(CORPUS[index], BUDGET, BUDGET)


def _check_oracle(e, states):
    truth = oracle_set(e, len(states))
    for m, state in enumerate(states, start=1):
        if state is ProofState.UNKNOWN:
            assert contains_down(e), (render(e), m)
            continue
        assert (state is ProofState.PROVED) == (m in truth), (render(e), m)


@pytest.mark.parametrize("limit", [1, 97, BUDGET])
def test_corpus_states_equal_pointwise(limit):
    for index, e in enumerate(CORPUS):
        assert _bulk_states(e, limit, BUDGET) == _corpus_reference(index)[:limit], render(e)


def test_corpus_states_equal_oracle():
    for e in CORPUS:
        _check_oracle(e, _bulk_states(e, BUDGET, BUDGET))


@given(wide_exprs, st.integers(0, 300), st.integers(1, 400))
@settings(max_examples=150, deadline=None)
def test_generated_states_equal_pointwise(e, limit, budget):
    assert _bulk_states(e, limit, budget) == _pointwise_states(e, limit, budget)


@given(exprs, st.integers(1, 400))
@settings(max_examples=80, deadline=None)
def test_generated_states_equal_oracle(e, limit):
    _check_oracle(e, _bulk_states(e, limit, BUDGET))


def test_mixed_states_through_every_combinator():
    # at budget 100, down(mult(1000)) is Unknown everywhere, so x and y each
    # mix all three states: x is Proved at 2 and Unknown at the multiples of 3
    x = parse_expr("union({2},inter(mult(3),down(mult(1000))))")
    y = parse_expr("union(mult(5),inter(mult(2),down(mult(1000))))")
    cases = [
        Up(x), Comp(x), Down(x), Quot(x, 2), Scale(x, 2), PowSet(x, 2),
        Union(x, y), Union(y, x), Inter(x, y), Inter(y, x), Up(Union(x, y)),
    ]
    for e in cases:
        assert _bulk_states(e, 300, 100) == _pointwise_states(e, 300, 100), render(e)


def test_fallback_cases_equal_pointwise():
    odd = Derived("odd", lambda m, b: proved(b) if m % 2 else refuted(b))
    maybe = Derived("maybe", lambda m, b: unknown(b) if m % 3 == 0 else refuted(b))
    cases = [
        Union(Mult(5), odd),
        Up(Union(maybe, Lit(frozenset({4})))),
        # reaches 2 * 10^6 > the sieve cap, so this node runs pointwise
        Quot(Union(Mult(7), Lit(frozenset({2 * 10**6}))), 200),
    ]
    for e in cases:
        assert _bulk_states(e, BUDGET, BUDGET) == _pointwise_states(e, BUDGET, BUDGET)


def test_evaluate_range_rejects_bad_bounds():
    with pytest.raises(PreconditionError):
        evaluate_range(Mult(2), -1, BUDGET)
    with pytest.raises(PreconditionError):
        evaluate_range(Mult(2), 10, 0)


def test_omega_table_matches_omega():
    table = arith.omega_table(5000)
    assert all(table[m] == arith.omega(m) for m in range(1, 5001))


# --- the routed scans against their pointwise forms ---------------------------

def _reference_enumerate(e, limit, budget):
    members, complete = [], True
    for m in range(1, limit + 1):
        v = _member(e, m, budget)
        if v.proved:
            members.append(m)
        elif v.unknown:
            complete = False
    return members, complete


def _reference_upward_closed(e, budget):
    if _structurally_up_closed(e):
        return proved(budget, "structural")
    for m in range(1, budget + 1):
        if not _member(e, m, budget).proved:
            continue
        k = 2
        while k * m <= budget:
            if _member(e, k * m, budget).refuted:
                return refuted(budget, (m, k * m))
            k += 1
    return unknown(budget)


def _reference_infinite(e, budget):
    if _structurally_infinite(e):
        return proved(budget, "structural")
    if _structurally_finite(e):
        return refuted(budget, "structural")
    count = sum(1 for m in range(1, budget + 1) if _member(e, m, budget).proved)
    return unknown(budget, count)


def _same_verdict(a, b):
    return (a.state, a.budget, a.certificate) == (b.state, b.budget, b.certificate)


def _check_scans(e, budget):
    assert enumerate_upto(e, budget, budget) == _reference_enumerate(e, budget, budget)
    assert _same_verdict(is_upward_closed(e, budget), _reference_upward_closed(e, budget))
    assert _same_verdict(is_infinite(e, budget), _reference_infinite(e, budget))


def test_corpus_scans_equal_pointwise():
    for e in CORPUS:
        _check_scans(e, 2000)
        _check_scans(e, 0)  # an empty scan, as before


def test_upward_closed_certificate_past_the_first_window():
    # (3, 9) lies in the first window, but the first pair is (2, 128)
    e = parse_expr("union(inter(mult(2),comp({128})),{3})")
    assert is_upward_closed(e, 1000).certificate == (2, 128)
    _check_scans(e, 1000)
    # here the least member 6 already has a refuted multiple in that window
    assert is_upward_closed(parse_expr("prodset(P,P)"), BUDGET).certificate == (6, 12)


@given(wide_exprs, st.integers(1, 300))
@settings(max_examples=100, deadline=None)
def test_generated_scans_equal_pointwise(e, budget):
    _check_scans(e, budget)


def _windowed_upward_closed(e, budget):
    """is_upward_closed with windows [1..w] growing fourfold up to the budget
    for every expression, as before expressions with `down` were scanned in
    one window."""
    if _structurally_up_closed(e):
        return proved(budget, "structural")
    window = min(64, budget)
    while True:
        proved_, unknown_ = evaluate_range(e, window, budget)
        least = m = proved_.find(1)
        while m != -1:
            multiples = range(2 * m, window + 1, m)
            refuted_at = [k for k in multiples if not (proved_[k] or unknown_[k])]
            if refuted_at:
                if window == budget or m == least:
                    return refuted(budget, (m, refuted_at[0]))
                break
            m = proved_.find(1, m + 1)
        if window == budget:
            return unknown(budget)
        window = min(4 * window, budget)


@pytest.mark.parametrize(
    "text",
    [
        "down({120,720})",
        "down(factorials)",
        "union(inter(mult(2),comp({9998})),inter({3},down(level(3))))",
        "union(inter(mult(3),comp({600})),down({120,720}))",
    ],
)
def test_upward_closed_with_down_equals_windowed(text):
    e = parse_expr(text)
    for budget in (1, 100, 1000, BUDGET):
        assert _same_verdict(is_upward_closed(e, budget), _windowed_upward_closed(e, budget))


@given(wide_exprs.filter(contains_down), st.integers(1, 500))
@settings(max_examples=100, deadline=None)
def test_generated_upward_closed_with_down_equals_windowed(e, budget):
    assert _same_verdict(is_upward_closed(e, budget), _windowed_upward_closed(e, budget))


# --- the one-pass class bound against the recounting one ------------------------

def _reference_class_upper_bound(supports):
    remaining = [s for s in supports]
    bound = sum(1 for s in remaining if not s)
    remaining = [s for s in remaining if s]
    while remaining:
        freq = {}
        for s in remaining:
            for p in s:
                freq[p] = freq.get(p, 0) + 1
        best_p = max(freq, key=lambda p: (freq[p], -p))
        remaining = [s for s in remaining if best_p not in s]
        bound += 1
    return bound


def test_class_upper_bound_equals_reference():
    rng = random.Random(2019)
    for e in CORPUS:
        members, complete = enumerate_upto(e, 3000, BUDGET)
        if not complete:
            continue
        supports = [arith.prime_support(x) for x in members]
        for _ in range(4):
            sample = rng.sample(supports, rng.randint(0, len(supports)))
            assert antichain._class_upper_bound(sample) == _reference_class_upper_bound(
                sample
            ), render(e)


def test_exact_antichain_witnesses_unchanged(monkeypatch):
    limit = 2000
    found = {}
    for e in CORPUS:
        if render(e) in UNBOUNDED_ANTICHAIN or not enumerate_upto(e, limit, BUDGET)[1]:
            continue
        size, cert = antichain.max_strong_antichain(e, limit, budget=BUDGET)
        found[render(e)] = (size, cert.witness)
    monkeypatch.setattr(antichain, "enumerate_upto", _reference_enumerate)
    monkeypatch.setattr(antichain, "_class_upper_bound", _reference_class_upper_bound)
    for e in CORPUS:
        if render(e) in found:
            size, cert = antichain.max_strong_antichain(e, limit, budget=BUDGET)
            assert found[render(e)] == (size, cert.witness), render(e)
