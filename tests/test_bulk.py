"""Whole-range evaluation against the pointwise reference semantics.

evaluate_range and the scans routed through it must give, state for state
and certificate for certificate, what member() gives one m at a time. The
pointwise scans and the old class bound are kept here as the references.
"""

import math
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import oracle_set
from strategies import exprs, wide_exprs

from divfilters import antichain, arith, load_corpus, semantics
from divfilters.errors import PreconditionError
from divfilters.semantics import (
    _member,
    enumerate_upto,
    evaluate_range,
    facts,
    is_infinite,
    is_upward_closed,
    scan,
)
from divfilters.setexpr import (
    Comp,
    Down,
    Inter,
    Level,
    Lit,
    Mult,
    PowSet,
    ProdSet,
    Quot,
    Scale,
    Union,
    Up,
    children,
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
    states = evaluate_range(e, limit, budget)
    assert len(states) == limit + 1
    assert states[0] == 0
    assert set(states) <= {0, 1, 2}
    return [(ProofState.REFUTED, ProofState.PROVED, ProofState.UNKNOWN)[s] for s in states[1:]]


def _pointwise_states(e, limit, budget):
    return [_member(e, m, budget).state for m in range(1, limit + 1)]


@lru_cache(maxsize=None)
def _corpus_reference(index):
    return _pointwise_states(CORPUS[index], BUDGET, BUDGET)


def _check_oracle(e, states):
    truth = oracle_set(render(e), len(states))
    for m, state in enumerate(states, start=1):
        if state is ProofState.UNKNOWN:
            assert contains_down(e), (render(e), m)
            continue
        assert (state is ProofState.PROVED) == (m in truth), (render(e), m)


@pytest.mark.parametrize("limit", [1, 97, BUDGET])
def test_corpus_states_equal_pointwise(limit):
    for index, e in enumerate(CORPUS):
        assert _bulk_states(e, limit, BUDGET) == _corpus_reference(index)[:limit], render(e)


@given(wide_exprs, st.integers(0, 300), st.integers(1, 400))
@settings(max_examples=150, deadline=None)
def test_generated_states_equal_pointwise(e, limit, budget):
    assert _bulk_states(e, limit, budget) == _pointwise_states(e, limit, budget)


def _has_nested_down(e):
    if isinstance(e, Down):
        return contains_down(e.inner)
    return any(_has_nested_down(c) for c in children(e))


# the oracle's down scans to ten times its bound, so each down nested inside
# a down multiplies the oracle's work tenfold
@given(st.one_of(exprs, wide_exprs.filter(lambda e: not _has_nested_down(e))),
       st.integers(1, 400))
@settings(max_examples=160, deadline=None)
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
    # at budget 10^4, down(mult(1000)) is Proved at m when lcm(m, 1000) <= 10^4
    # and Unknown elsewhere, so the first two cases mix all three states
    maybe = Down(Mult(1000))
    cases = [
        Union(Mult(5), ProdSet((Lit(frozenset({2, 3})), maybe))),
        Up(Union(ProdSet((Lit(frozenset({7})), Comp(maybe))), Lit(frozenset({4})))),
        # reaches 2 * 10^6 > the sieve cap, so this node runs pointwise
        Quot(Union(Mult(7), Lit(frozenset({2 * 10**6}))), 200),
    ]
    for i, e in enumerate(cases):
        states = _bulk_states(e, BUDGET, BUDGET)
        assert states == _pointwise_states(e, BUDGET, BUDGET)
        if i < 2:
            assert set(states) == set(ProofState), render(e)


@pytest.mark.parametrize("budget", [1, 100, BUDGET])
def test_down_of_an_explicit_set_is_decided(budget):
    # unions, intersections and scales of literal sets and empty are explicit
    # sets, so down of one is decided at any budget, pointwise and in bulk
    texts = ["down(union({12},{18}))", "down(inter({12,18},{18,30}))",
             "down(scale(union({7},{5,11}),6))", "down(union(empty,{1000,600}))",
             "down(inter({8},{9}))", "comp(down(union({12},scale({9},2))))"]
    for text in texts:
        e = parse_expr(text)
        states = _bulk_states(e, 300, budget)
        assert states == _pointwise_states(e, 300, budget), text
        assert ProofState.UNKNOWN not in states, text
        _check_oracle(e, states)
    assert _member(parse_expr("down(union({12},{18}))"), 5, 100).refuted


def test_prime_product_with_an_unknown_factor_is_unknown():
    # 143 = 11 * 13, and 11 lies in down(factorials) only through 11! > 10^4,
    # so the first argument's verdict at 11 is Unknown at the default budget
    e = parse_expr("prodset(inter(P,down(factorials)),P)")
    assert _member(e, 143, BUDGET).unknown
    v = _member(e, 143, math.factorial(11))
    assert v.proved and v.certificate == (11, 13)
    states = _bulk_states(e, 300, BUDGET)
    assert states == _pointwise_states(e, 300, BUDGET)
    assert states[143 - 1] is ProofState.UNKNOWN
    _check_oracle(e, states)


# two-argument prodsets, which _range builds from the two arguments' ranges;
# at budget 10^4 the first four mix all three states within [1..300]
TWO_ARGUMENT_PRODSETS = [
    # prime path (_match), with an Unknown factor on either side
    "prodset(inter(P,down(factorials)),P)",
    "prodset(P,inter(P,down(factorials)))",
    # general path (_prodset_backtrack), with down on either side
    "prodset(down(mult(1000)),mult(3))",
    "prodset({3,5},down(mult(1000)))",
    # a = b is left out, and 1 may be a factor; 2 * 7 = 14 is the product at
    # the limit 14 and one past the limit 13
    "prodset({2},{2})",
    "prodset({1,2},{1,2})",
    "prodset({1},mult(5))",
    "prodset({2,7},{1,7})",
]


@pytest.mark.parametrize("limit", [0, 1, 13, 14, 300])
@pytest.mark.parametrize("index", range(len(TWO_ARGUMENT_PRODSETS)))
def test_two_argument_prodset_equals_pointwise(index, limit):
    e = parse_expr(TWO_ARGUMENT_PRODSETS[index])
    states = _bulk_states(e, limit, BUDGET)
    assert states == _pointwise_states(e, limit, BUDGET)
    if index < 4 and limit == 300:
        assert set(states) == set(ProofState)
    if index == len(TWO_ARGUMENT_PRODSETS) - 1:
        assert (ProofState.PROVED in states[13:]) == (limit >= 14)


def test_prodset_with_a_costly_first_argument_equals_pointwise():
    # member enumerates the first argument at every divisor of m, which made
    # the old pointwise range take seconds; the bulk rule takes milliseconds
    e = parse_expr("up(union(prodset(down(mult(1000)),{7}),{4}))")
    states = _bulk_states(e, 2000, BUDGET)
    assert states == _pointwise_states(e, 2000, BUDGET)
    assert set(states) == set(ProofState)


def test_evaluate_range_rejects_bad_bounds():
    with pytest.raises(PreconditionError):
        evaluate_range(Mult(2), -1, BUDGET)
    with pytest.raises(PreconditionError):
        evaluate_range(Mult(2), 10, 0)


def test_omega_table_matches_omega():
    # a level range counts Omega by prime-power strides: check every level
    # up to one past the largest Omega at the limit, and a limit that is
    # itself a prime power
    for limit in (5000, 2**12):
        omegas = [arith.omega(m) for m in range(1, limit + 1)]
        for n in range(max(omegas) + 2):
            states = evaluate_range(Level(n), limit, BUDGET)
            assert list(states[1:]) == [int(omega == n) for omega in omegas]
            assert 2 not in states


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
    if facts(e).up_closed:
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
    if facts(e).infinite:
        return proved(budget, "structural")
    if facts(e).finite:
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


def _reference_scan(e, limit, budget):
    states = _pointwise_states(e, limit, budget)
    return [(m, s is ProofState.PROVED)
            for m, s in enumerate(states, start=1) if s is not ProofState.REFUTED]


@given(wide_exprs, st.integers(0, 700), st.integers(1, 400))
@settings(max_examples=100, deadline=None)
def test_generated_window_scan_equals_pointwise(e, limit, budget):
    # limits past 64 and 256 cross the first windows
    assert list(scan(e, limit, budget)) == _reference_scan(e, limit, budget)


def test_window_scan_evaluates_growing_windows(monkeypatch):
    assert list(scan(Mult(2), 0, 0)) == []
    with pytest.raises(PreconditionError):
        next(scan(Mult(2), 1, 0))
    windows = []
    evaluate = semantics._range

    def recording(e, limit, budget):
        if e in tops:
            windows.append(limit)
        return evaluate(e, limit, budget)

    monkeypatch.setattr(semantics, "_range", recording)
    tops = (parse_expr("union(mult(7),{3})"), parse_expr("union(mult(7),down({3}))"))
    plain, with_down = tops
    assert next(scan(plain, BUDGET, BUDGET)) == (3, True) and windows == [64]
    windows.clear()
    assert len(list(scan(plain, BUDGET, BUDGET))) == BUDGET // 7 + 1
    assert windows == [64, 256, 1024, 4096, BUDGET]
    windows.clear()
    assert next(scan(with_down, BUDGET, BUDGET)) == (1, True) and windows == [BUDGET]


def test_window_scan_walks_pointwise_past_the_sieve_cap(monkeypatch):
    # past the cap _range is pointwise, so the scan stops opening windows
    # there and asks member about each further m once; a `down` node whose
    # inner set reaches a budget past the cap opens none
    monkeypatch.setattr(arith, "DEFAULT_SIEVE_CAP", 1000)
    windows = []
    evaluate = semantics._range

    def recording(e, limit, budget):
        if e in tops:
            windows.append(limit)
        return evaluate(e, limit, budget)

    monkeypatch.setattr(semantics, "_range", recording)
    tops = (parse_expr("union(mult(7),{3})"), parse_expr("union(mult(7),down(comp({1})))"))
    plain, with_down = tops
    for e in tops:
        assert list(scan(e, 3000, 3000)) == _reference_scan(e, 3000, 3000)
    assert windows == [64, 256]
    windows.clear()
    assert next(scan(with_down, 3000, 3000)) == (1, True) and windows == []
    assert list(scan(with_down, 900, 900)) == _reference_scan(with_down, 900, 900)
    assert windows == [900]


def test_scan_asks_member_alone_under_a_down_with_a_budget_past_the_cap(monkeypatch):
    # the down node's inner range would span [1..budget], past the sieve
    # cap, so scan opens no window and asks member from m = 1: mult(7)
    # refutes 1 and down(primesIdx(1,2)) proves it at 2, five evaluations;
    # a window of [1..limit] would range the down node pointwise instead
    calls = 0
    real = semantics._member

    def counting(e, m, budget):
        nonlocal calls
        calls += 1
        if calls > 10:
            raise AssertionError("scan asked member more than 10 times")
        return real(e, m, budget)

    monkeypatch.setattr(semantics, "_member", counting)
    e = parse_expr("union(mult(7),down(primesIdx(1,2)))")
    assert next(scan(e, 10**6, 2 * 10**6)) == (1, True)


def test_window_scan_opens_windows_for_a_bare_prodset(monkeypatch):
    # _range evaluates a two-argument prodset in bulk, so the scan opens
    # windows for it, bare as under an up node; three or more arguments
    # fall back to member at each m inside _range
    windows = []
    evaluate = semantics._range

    def recording(e, limit, budget):
        if e == bare:
            windows.append(limit)
        return evaluate(e, limit, budget)

    monkeypatch.setattr(semantics, "_range", recording)
    bare = parse_expr("union(prodset({2,3},{5,7}),{1})")
    cases = (bare, parse_expr("up(prodset({2,3},{5,7}))"),
             parse_expr("union(prodset({2,3},{5,7},mult(11)),{1})"))
    for e in cases:
        assert list(scan(e, 700, 700)) == _reference_scan(e, 700, 700), render(e)
    assert windows == [64, 256, 700]
    windows.clear()
    assert next(scan(bare, 700, 700)) == (1, True) and windows == [64]


# is_upward_closed scans in windows; with `down` in the expression its
# windowed verdict must still be the pointwise reference's
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
        assert _same_verdict(is_upward_closed(e, budget), _reference_upward_closed(e, budget))


@given(wide_exprs.filter(contains_down), st.integers(1, 500))
@settings(max_examples=100, deadline=None)
def test_generated_upward_closed_with_down_equals_windowed(e, budget):
    assert _same_verdict(is_upward_closed(e, budget), _reference_upward_closed(e, budget))


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
            assert len(set(antichain._classes(sample))) == _reference_class_upper_bound(
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
    for e in CORPUS:
        if render(e) in found:
            size, cert = antichain.max_strong_antichain(e, limit, budget=BUDGET)
            assert found[render(e)] == (size, cert.witness), render(e)
