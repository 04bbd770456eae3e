"""The bounded searches of filters, antichain and chains against the loops
they replaced, kept here as the references.

make_filter's fallback, filter_member (and through it divides_tilde,
d_member and product_member) and extend_antichain run on semantics.scan;
each must give the answer, certificate and error of its old pointwise
loop. filter_member asks semantics.is_subset, which reads the target from
one evaluate_range per scan window while semantics.in_bulk says that range
asks member nothing, so its targets include ones whose range takes
_range's fallbacks (a quot past the sieve cap, a down node, a prodset of
three arguments) or raises, and a count of member evaluations pins which
path is taken. in_bulk itself must
be sound: where it says True, evaluate_range makes no member evaluation.
The prime walk now shared by the min member and the chain omission
witness, and the coprime greedy shared by is_n_free and
find_antichain_of_size, must pick what each copy picked.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import exprs, wide_exprs

import divfilters
from divfilters import arith, default_filters, filters, load_corpus, semantics
from divfilters.antichain import extend_antichain, find_antichain_of_size, is_n_free
from divfilters.chains import build_chain, verify_chain
from divfilters.errors import (
    BudgetExceededError,
    FilterConstructionError,
    IncompleteEnumerationError,
)
from divfilters.filters import (
    FilterPresentation,
    d_member,
    divides_tilde,
    filter_member,
    make_filter,
    product_member,
)
from divfilters.harness import run_harness
from divfilters.semantics import (
    DEFAULT_BUDGET,
    evaluate_range,
    facts,
    member,
    structurally_subset,
)
from divfilters.setexpr import (
    Inter,
    Lit,
    Mult,
    PowSet,
    ProdSet,
    Quot,
    Scale,
    Up,
    parse_expr,
    render,
)
from divfilters.verdict import proved, refuted, unknown

CORPUS = load_corpus()
FILTERS = default_filters()
BUDGETS = (50, 300, 10**4)
# prime products whose factors hold a `down` node, so the walk's picks
# depend on the budget it evaluates at
DOWN_PRIME_PRODUCTS = [
    parse_expr("prodset(inter(P,down(factorials)),P)"),
    parse_expr("prodset(inter(P,down(union({5},mult(3000)))),P)"),
    parse_expr("up(prodset(primesIdx(1,2),inter(primesIdx(2,2),down(level(3)))))"),
]
# The one answer the walk's budget changes. At DEFAULT_BUDGET the old walk
# picked 2, as 2 divides 3000; at budget 5 that is Unknown, so its product 6
# failed, and make_filter reported the core empty up to 5. The walk at
# budget 5 picks 5 and 2, and 10 is a Proved member.
WALK_BUDGET_CHANGES = {
    ("prodset(inter(P,down(union({5},mult(3000)))),P)", 5): ("empty", 10),
}


def _same_verdict(a, b):
    return (a.state, a.budget, a.certificate) == (b.state, b.budget, b.certificate)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (FilterConstructionError, IncompleteEnumerationError) as exc:
        return type(exc).__name__, str(exc)


# --- make_filter --------------------------------------------------------------

def _reference_min_member(e):
    """_structural_min_member as it was: its prime walk looked at the first
    10**4 primes at DEFAULT_BUDGET, whatever budget make_filter had."""
    if isinstance(e, Up):
        return _reference_min_member(e.inner)
    if isinstance(e, Scale):
        inner = _reference_min_member(e.inner)
        return None if inner is None else e.n * inner
    if isinstance(e, PowSet):
        inner = _reference_min_member(e.base)
        return None if inner is None else inner**e.n
    if isinstance(e, ProdSet) and all(facts(a).primes for a in e.args):
        used, product = set(), 1
        for arg in e.args:
            for idx in range(1, 10**4 + 1):
                p = arith.nth_prime(idx)
                if p not in used and member(arg, p, DEFAULT_BUDGET).proved:
                    break
            else:
                return None
            used.add(p)
            product *= p
        return product
    return filters._structural_min_member(e, DEFAULT_BUDGET)  # no walk below e


def _reference_fip_witness(gens, budget):
    core = gens[0]
    for g in gens[1:]:
        core = Inter(core, g)
    witness = _reference_min_member(core)
    if witness is not None and member(core, witness, budget).proved:
        return witness
    saw_unknown = False
    for m in range(1, budget + 1):
        v = member(core, m, budget)
        if v.proved:
            return m
        if v.unknown:
            saw_unknown = True
    return "unknown" if saw_unknown else "empty"


def _fip_witness(gens, budget):
    try:
        return make_filter(gens, budget).fip_witness
    except FilterConstructionError as exc:
        return "unknown" if "Unknown" in str(exc) else "empty"


@pytest.mark.parametrize("budget", (5,) + BUDGETS)
def test_fip_witness_equals_reference(budget):
    cases = [[e] for e in CORPUS + DOWN_PRIME_PRODUCTS]
    cases += [list(f.gens) for f in FILTERS if not f.principal]
    # no Proved member, and Unknown ones: 11 divides no factorial <= 10**4
    cases.append([parse_expr("inter(mult(11),comp(down(factorials)))")])
    found = set()
    for gens in cases:
        witness = _fip_witness(gens, budget)
        expected = _reference_fip_witness(gens, budget)
        change = WALK_BUDGET_CHANGES.get((";".join(map(render, gens)), budget))
        if change is not None:
            assert expected == change[0]
            expected = change[1]
        assert witness == expected, [render(g) for g in gens]
        found.add(witness if isinstance(witness, str) else "witness")
    if budget >= 50:
        assert found == {"witness", "unknown", "empty"}


def test_min_member_walk_stops_at_the_10000th_prime():
    assert arith.nth_prime(10**4) == 104_729
    # a fresh process, so the sieve starts at its initial size
    script = (
        "from divfilters import arith, default_filters\n"
        "default_filters()\n"
        "print(arith._SIEVE.limit)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(divfilters.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert int(out) < 104_729


def test_down_core_past_the_sieve_cap_stops_at_its_first_member():
    # the scan walks a `down` node pointwise past the cap, so it stops at
    # m = 1, as the old loop did, and never reaches prime_index past the cap
    budget = 2 * 10**6
    core = parse_expr("down(primesIdx(1,2))")
    f = make_filter([core], budget)
    assert f.fip_witness == _reference_fip_witness([core], budget) == 1
    assert _same_verdict(filter_member(f, parse_expr("mult(2)"), budget), refuted(budget, 1))
    assert divides_tilde(f, filters.principal(2), budget).proved
    assert extend_antichain(core, {2}, 2000, budget) == 1


# --- filter_member and the operations built on it -----------------------------

def _reference_is_subset(a, e, budget):
    if structurally_subset(a, e, budget):
        return proved(budget, "structural")
    for b in range(1, budget + 1):
        if member(a, b, budget).proved and member(e, b, budget).refuted:
            return refuted(budget, b)
    return unknown(budget)


def _reference_filter_member(f, e, budget):
    if f.principal:
        return member(e, f.point, budget)
    return _reference_is_subset(f.core, e, budget)


@pytest.mark.parametrize("budget", (300, 1000))
def test_is_subset_equals_reference_on_the_corpus(budget):
    # every corpus set as a, not only the default filter cores
    states = set()
    for a in CORPUS:
        for e in CORPUS:
            got = semantics.is_subset(a, e, budget)
            assert _same_verdict(got, _reference_is_subset(a, e, budget)), (render(a), render(e))
            states.add(got.state)
    assert len(states) == 3


def _filter_answers(budget):
    generated = [f for f in FILTERS if not f.principal]
    answers = []
    for f in FILTERS:
        for e in CORPUS:
            answers.append(filters.filter_member(f, e, budget))
            answers.append(d_member(f, e, budget))
        for g in FILTERS:
            answers.append(divides_tilde(f, g, budget))
    if budget <= 300:
        for i, f in enumerate(generated[::2]):
            for g in generated[2 * i :: 2]:
                answers.extend(product_member(f, g, e, budget) for e in CORPUS)
    return answers


@pytest.mark.parametrize("budget", BUDGETS)
def test_filter_scans_equal_reference(budget, monkeypatch):
    found = _filter_answers(budget)
    # the operations reach filter_member through the module's name
    monkeypatch.setattr(filters, "filter_member", _reference_filter_member)
    expected = _filter_answers(budget)
    assert len(found) == len(expected)
    for a, b in zip(found, expected):
        assert _same_verdict(a, b), (a, b)
    assert len({v.state for v in found}) == 3


# targets whose range takes a fallback of _range: each reaches filter_member
# as a quot past the sieve cap (through a principal factor at 1009), a down
# node (d_set of a set that is not upward closed), or a prodset of three
# arguments
QUOT_TARGETS = [parse_expr(t) for t in ("comp({5})", "comp({2018000})", "mult(3)")]
DOWN_TARGETS = [parse_expr(t) for t in ("level(2)", "primesIdx(1,2)", "comp({4})")]
PRODSET_TARGETS = [parse_expr(t) for t in ("prodset(P,P,P)", "prodset(mult(2),primesIdx(2,2),P)")]


def _fallback_answers(budget):
    at_1009 = filters.principal(1009)
    answers = []
    for f in FILTERS:
        answers.extend(product_member(at_1009, f, e, budget) for e in QUOT_TARGETS)
        answers.extend(d_member(f, e, budget) for e in DOWN_TARGETS)
        answers.extend(filters.filter_member(f, e, budget) for e in PRODSET_TARGETS)
    return answers


@pytest.mark.parametrize("budget", (300, 10**4))
def test_fallback_targets_equal_reference(budget, monkeypatch):
    found = _fallback_answers(budget)
    monkeypatch.setattr(filters, "filter_member", _reference_filter_member)
    expected = _fallback_answers(budget)
    for a, b in zip(found, expected, strict=True):
        assert _same_verdict(a, b), (a, b)
    assert len({v.state for v in found}) == 3


def _windows_read(monkeypatch, f, e, budget):
    """The windows filter_member reads e over, and its verdict."""
    windows = []

    def recording(e, limit, budget):
        windows.append(limit)
        return evaluate_range(e, limit, budget)

    monkeypatch.setattr(semantics, "evaluate_range", recording)
    return windows, filters.filter_member(f, e, budget)


def test_target_windows_grow_fourfold_from_64_and_reach_the_member(monkeypatch):
    g = make_filter([Mult(2), Mult(3)])
    windows, v = _windows_read(monkeypatch, g, Up(Mult(6)), 10**4)
    assert (windows, v.unknown) == ([64, 256, 1024, 4096, 10**4], True)
    f = make_filter([Lit(frozenset({100, 5000}))])
    windows, v = _windows_read(monkeypatch, f, Mult(7), 10**4)
    assert (windows, v.certificate) == ([100], 100)
    windows, v = _windows_read(monkeypatch, f, parse_expr("comp({5000})"), 10**4)
    assert (windows, v.certificate) == ([100, 5000], 5000)
    windows, v = _windows_read(monkeypatch, f, parse_expr("comp(down(factorials))"), 10**4)
    assert (windows, v.unknown) == ([100, 5000], True)


def test_target_past_the_sieve_cap_is_asked_pointwise(monkeypatch):
    budget = 1_000_100
    f = make_filter([Lit(frozenset({1_000_050}))], budget)
    windows, v = _windows_read(monkeypatch, f, Mult(7), budget)
    assert windows == []
    assert _same_verdict(v, refuted(budget, 1_000_050))
    # scan's rule: a target with a down node at a budget past the cap
    budget = 2 * 10**6
    f = make_filter([Mult(6)], budget)
    windows, v = _windows_read(monkeypatch, f, filters.d_set(parse_expr("level(2)")), budget)
    assert windows == []
    assert _same_verdict(v, refuted(budget, 6))


def test_hand_built_core_past_the_cap_never_reads_its_target():
    # The core is Proved nowhere, so the target is never evaluated. A scan
    # of inter(core,comp(e)) evaluates e where the core is Unknown and
    # raises at prime_index(1000003).
    budget = 1_000_100
    core = parse_expr("comp(down(factorials))")
    f = FilterPresentation(False, core, gens=(core,))
    got = filter_member(f, parse_expr("primesIdx(1,2)"), budget)
    assert _same_verdict(got, unknown(budget))


def test_a_target_range_that_raises_falls_back_to_member():
    e = parse_expr("primesIdx(1,2)")
    with pytest.raises(BudgetExceededError, match="exceeds sieve cap"):
        evaluate_range(Quot(e, 1000003), 64, DEFAULT_BUDGET)
    # member at 2 asks about 2000006, which is even and so no prime
    f = make_filter([Mult(2)])
    got = product_member(filters.principal(1000003), f, e)
    assert _same_verdict(got, refuted(DEFAULT_BUDGET, 2))
    assert _same_verdict(got, _reference_filter_member(f, Quot(e, 1000003), DEFAULT_BUDGET))


def _member_calls(monkeypatch, fn, *args):
    calls = 0
    real = semantics._member

    def counting(e, m, budget):
        nonlocal calls
        calls += 1
        return real(e, m, budget)

    monkeypatch.setattr(semantics, "_member", counting)
    fn(*args)
    monkeypatch.setattr(semantics, "_member", real)
    return calls


def test_filter_member_reads_its_target_by_range(monkeypatch):
    # counts of member evaluations when filter_member asked member at each
    # Proved core member: 77,401 for T5.4ii, 1,668 or 17,828 for each of the
    # Unknown divides_tilde full scans among the default filters
    assert _member_calls(monkeypatch, run_harness, ["T5.4ii"]) < 5_000
    full_scans = [(f, g) for f in FILTERS for g in FILTERS
                  if divides_tilde(f, g, DEFAULT_BUDGET).unknown]
    assert len(full_scans) == 3
    for f, g in full_scans:
        assert _member_calls(monkeypatch, divides_tilde, f, g, DEFAULT_BUDGET) < 100


@pytest.mark.parametrize("target", ["prodset(P,P,P)", "union(prodset(P,P,P),{1})"])
def test_sparse_core_asks_a_pointwise_target_only_at_its_member(target, monkeypatch):
    # The core's first Proved member is 999990, so a range of the target
    # would cover [1..999990]; the three-argument prodset, at the top or
    # nested, makes that range pointwise, 2,862,649 member evaluations,
    # where asking member at 999990 alone takes a few.
    budget = 10**6
    f = make_filter([Lit(frozenset({999990}))], budget)
    e = parse_expr(target)
    assert _same_verdict(filter_member(f, e, budget), refuted(budget, 999990))
    assert _member_calls(monkeypatch, filter_member, f, e, budget) <= 10


PAST_THE_CAP = arith.DEFAULT_SIEVE_CAP + 1


@given(st.one_of(exprs, wide_exprs), st.sampled_from((1, 64, 10**4, PAST_THE_CAP)),
       st.sampled_from((300, 10**4, 2 * 10**6)))
@settings(max_examples=300, deadline=None)
def test_a_bulk_range_asks_member_nothing(e, limit, budget):
    if semantics.in_bulk(e, limit, budget):
        with pytest.MonkeyPatch.context() as mp:
            assert _member_calls(mp, evaluate_range, e, limit, budget) == 0


# a down node's child is ranged over [1..budget], a quot node's over
# [1..limit*n]: each passes the sieve cap at some limits or budgets only
CHILD_LIMIT_TARGETS = [parse_expr(t) for t in ("down(quot(P,4))", "quot(quot(P,100),100)")]


@pytest.mark.parametrize("limit, budget", [(64, 300), (64, 10**4), (10**4, 10**4),
                                           (64, 3 * 10**5)])
def test_in_bulk_is_exact_on_the_corpus_and_fallback_targets(limit, budget, monkeypatch):
    # in_bulk may answer False for a range that asks member nothing (a
    # scale or pow child judged at its parent's limit); none of these
    # expressions is such a case, so on them it is exact both ways
    targets = (CORPUS + [Quot(e, 1009) for e in QUOT_TARGETS]
               + [filters.d_set(e) for e in DOWN_TARGETS] + PRODSET_TARGETS
               + CHILD_LIMIT_TARGETS)
    kinds = set()
    for e in targets:
        bulk = semantics.in_bulk(e, limit, budget)
        calls = _member_calls(monkeypatch, evaluate_range, e, limit, budget)
        assert bulk == (calls == 0), render(e)
        kinds.add(bulk)
    assert kinds == {True, False}


# --- antichain ----------------------------------------------------------------

def _reference_extend_antichain(e, x, limit):
    budget = max(DEFAULT_BUDGET, limit)
    for m in range(1, limit + 1):
        v = member(e, m, budget)
        if v.unknown:
            raise IncompleteEnumerationError(
                f"membership of {m} in {render(e)} is Unknown at budget {budget}"
            )
        if v.proved and all(math.gcd(m, y) == 1 for y in x):
            return m
    return None


def test_extend_antichain_equals_reference():
    # 49 divides no factorial <= 10**4: Unknown before any member coprime to 7
    hosts = CORPUS + [parse_expr("inter(mult(7),down(factorials))")]
    outcomes = set()
    for x in (set(), {2}, {3, 5}, {7}):
        for e in hosts:
            got = _outcome(extend_antichain, e, x, 2000)
            assert got == _outcome(_reference_extend_antichain, e, x, 2000), (render(e), x)
            outcomes.add(type(got).__name__)
    assert outcomes == {"int", "NoneType", "tuple"}


def _reference_coprime_greedy(e, limit, budget):
    """The inline loop of is_n_free."""
    used, largest = set(), []
    for m in range(1, limit + 1):
        sup = arith.prime_support(m)
        if used.isdisjoint(sup) and member(e, m, budget).proved:
            largest.append(m)
            used |= sup
    return largest


def _reference_find_antichain(e, size, limit):
    budget = max(DEFAULT_BUDGET, limit)
    used, chosen = set(), []
    for m in range(1, limit + 1):
        sup = arith.prime_support(m)
        if not used.isdisjoint(sup):
            continue
        if member(e, m, budget).proved:
            chosen.append(m)
            used |= sup
            if len(chosen) >= size:
                return tuple(chosen)
    return None


@pytest.mark.parametrize("budget", BUDGETS)
def test_coprime_greedy_equals_reference(budget):
    undecided = 0
    for e in CORPUS:
        v = is_n_free(e, budget)
        if v.unknown:
            undecided += 1
            expected = _reference_coprime_greedy(e, min(budget, 10**3), budget)
            assert v.certificate["largest_antichain"] == expected, render(e)
    assert undecided > 0
    for e in CORPUS:
        for size in (1, 4, 8):
            cert = find_antichain_of_size(e, size, 2000)
            assert (cert and cert.witness) == _reference_find_antichain(e, size, 2000), render(e)


# --- chains -------------------------------------------------------------------

def _reference_avoiding_product(chain, alpha, beta, limit):
    """The chain's own prime walk: one fresh prime per earlier family member,
    each outside member beta."""
    avoid = chain.family[beta]
    used, product = set(), 1
    for source in chain.family[:alpha]:
        idx = 1
        while True:
            p = arith.nth_prime(idx)
            if p > limit:
                return None
            if (p not in used and member(source, p, limit).proved
                    and member(avoid, p, limit).refuted):
                break
            idx += 1
        used.add(p)
        product *= p
    return product


@pytest.mark.parametrize("k, scheme", [(6, "residue"), (5, "tree"), (10, "tree")])
def test_omission_witnesses_equal_reference(k, scheme):
    chain = build_chain(k, scheme=scheme)
    for limit in (30, 1000, 10**6):
        report = verify_chain(chain, limit, DEFAULT_BUDGET)
        for pair in report.pairs:
            if pair.expectation != "omits" or pair.alpha == 0:
                continue
            witness = _reference_avoiding_product(chain, pair.alpha, pair.beta, limit)
            if witness is None:
                assert pair.verdict.certificate == "no avoiding product within limit"
            else:
                assert pair.verdict.certificate == witness, (pair.alpha, pair.beta, limit)
