"""The bounded searches of filters, antichain and chains against the loops
they replaced, kept here as the references.

make_filter's fallback, filter_member (and through it divides_tilde,
d_member and product_member) and extend_antichain run on semantics.scan;
each must give the answer, certificate and error of its old pointwise
loop. The prime walk now shared by the min member and the chain omission
witness, and the coprime greedy shared by is_n_free and
find_antichain_of_size, must pick what each copy picked.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import divfilters
from divfilters import arith, default_filters, filters, load_corpus
from divfilters.antichain import extend_antichain, find_antichain_of_size, is_n_free
from divfilters.chains import build_chain, verify_chain
from divfilters.errors import FilterConstructionError, IncompleteEnumerationError
from divfilters.filters import (
    d_member,
    divides_tilde,
    filter_member,
    make_filter,
    product_member,
)
from divfilters.semantics import DEFAULT_BUDGET, facts, member, structurally_subset
from divfilters.setexpr import Inter, PowSet, ProdSet, Scale, Up, parse_expr, render
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
        witness = make_filter(gens, budget).fip_witness
    except FilterConstructionError as exc:
        unverified = make_filter(gens, budget, allow_unverified=True).fip_witness
        assert unverified is None
        return "unknown" if "Unknown" in str(exc) else "empty"
    assert make_filter(gens, budget, allow_unverified=True).fip_witness == witness
    return witness


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

def _reference_filter_member(f, e, budget):
    if f.principal:
        return member(e, f.point, budget)
    if structurally_subset(f.core, e, budget):
        return proved(budget, "structural")
    for b in range(1, budget + 1):
        if member(f.core, b, budget).proved and member(e, b, budget).refuted:
            return refuted(budget, b)
    return unknown(budget)


def _filter_answers(budget):
    generated = [f for f in FILTERS if not f.principal]
    answers = []
    for f in FILTERS:
        for e in CORPUS:
            answers.append(filter_member(f, e, budget))
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
