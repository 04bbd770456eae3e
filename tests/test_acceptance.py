"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime. Durations are reported, not asserted, so slow
hardware does not flip correctness results.

Criteria 1, 2, 8 and 10 are harness suites T2.2, T3.3, L3.7 and E3.5b at
their default parameters, so each reads its case from the session's one
default harness run (the default_report fixture in conftest.py), and its
printed runtime is near 0 s."""

import math
import random
import time
from contextlib import contextmanager

from oracle import oracle_set

from divfilters import arith
from divfilters.antichain import find_antichain_of_size, is_n_free, lcm_extension, max_strong_antichain
from divfilters.chains import build_chain, verify_chain
from divfilters.corpus import default_filters, load_corpus
from divfilters.filters import d_member, filter_member, make_filter, product_member
from divfilters.harness import _brute_refutation, _sample_prime_sets
from divfilters.semantics import (
    enumerate_upto,
    is_upward_closed,
    member,
    quotient_case_rule,
    syntactic_cover,
)
from divfilters.setexpr import (
    Inter,
    Lit,
    Nat,
    PrimesIdx,
    Quot,
    Up,
    contains_down,
    render,
)

BUDGET = 10**4


@contextmanager
def report(number: int, label: str, capsys):
    start = time.time()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.time() - start
        status = "FAIL" if failed else "PASS"
        with capsys.disabled():
            print(f"[criterion {number:2d}] {status} ({elapsed:.1f}s) {label}")


def _assert_passed(harness_report, lemma_id: str, case_id: str):
    (case,) = [c for c in harness_report.cases if (c.lemma_id, c.case_id) == (lemma_id, case_id)]
    assert case.outcome == "pass", case.detail


def test_criterion_01_euclid_shadow(capsys, default_report):
    with report(1, "Euclid shadow: prime-up membership in principal products",
                capsys):
        _assert_passed(default_report, "T2.2", "euclid-shadow")


def test_criterion_02_principal_divisibility(capsys, default_report):
    with report(2, "principal tilde-divisibility is ordinary divisibility",
                capsys):
        _assert_passed(default_report, "T3.3", "principal-equivalence")


def test_criterion_03_quotient_case_rule(capsys):
    # The rule output (N vs the prime-up set itself) is compared with
    # direct Quot evaluation: the point x = 1 separates the two cases
    # exactly (1 belongs to N but never to a prime-up set), and a seeded
    # sample of (m, x) pairs checks full pointwise agreement.
    with report(3, "quotient case rule vs direct evaluation (200 seeded sets)",
                capsys):
        rng = random.Random(42)
        primes = arith.primes_upto(50)
        for _ in range(200):
            b_set = frozenset(rng.sample(primes, rng.randint(1, 6)))
            direct_host = Up(Lit(b_set))
            for m in range(1, 10**4 + 1):
                rule = quotient_case_rule(b_set, m)
                assert isinstance(rule, Nat) == member(
                    Quot(direct_host, m), 1, BUDGET
                ).proved, (sorted(b_set), m)
            for m in rng.sample(range(1, 10**4 + 1), 10):
                rule = quotient_case_rule(b_set, m)
                direct = Quot(direct_host, m)
                for x in range(1, 101):
                    assert (
                        member(rule, x, BUDGET).proved
                        == member(direct, x, BUDGET).proved
                    ), (sorted(b_set), m, x)


def test_criterion_04_fast_path_vs_unfolding(capsys):
    with report(4, "prime-up fast path vs truncated product unfolding",
                capsys):
        bound = 10**5
        rng = random.Random(7)
        pairs = []
        for _ in range(50):
            r1, m1 = rng.randint(1, 3), 3
            r2, m2 = rng.randint(1, 4), 4
            pairs.append((
                make_filter([Up(PrimesIdx(r1, m1))], BUDGET),
                make_filter([Up(PrimesIdx(r2, m2))], BUDGET),
            ))
        targets = []
        for b_set in _sample_prime_sets(rng, 50):
            while len(b_set) > 8:
                b_set = frozenset(list(b_set)[:8])
            targets.append((Up(Lit(b_set)), b_set))
        cache = {}

        def members_of(filt, limit):
            key = (filt.spec_text(), limit)
            if key not in cache:
                cache[key] = enumerate_upto(filt.core, limit, max(BUDGET, limit))[0]
            return cache[key]

        unknowns = total = 0
        for f, g in pairs:
            f_members = members_of(f, 400)
            g_members = members_of(g, bound // 2)
            for e, b_set in targets:
                total += 1
                fast = product_member(f, g, e, BUDGET)
                if fast.unknown:
                    unknowns += 1
                    continue
                witness = _brute_refutation(f_members, g_members, b_set, bound)
                if fast.proved:
                    assert witness is None, (f, g, render(e), witness)
                else:
                    assert witness is not None, (f, g, render(e))
        rate = unknowns / total
        with capsys.disabled():
            print(f"    criterion 4 unknown rate: {unknowns}/{total} = {rate:.1%}")
        assert rate < 0.20


def test_criterion_05_duality(capsys):
    with report(5, "covering/antichain duality over the default corpus",
                capsys):
        for e in load_corpus():
            cover = syntactic_cover(e)
            if cover is not None:
                for bound in (10**3, 10**4):
                    size, _ = max_strong_antichain(e, bound, mode="exact")
                    assert size <= len(cover), (render(e), bound, size)
                continue
            if is_n_free(e, BUDGET).proved:
                for t in range(1, 11):
                    cert = find_antichain_of_size(e, t, 10**5)
                    assert cert is not None, (render(e), t)


def test_criterion_06_lcm_intersection_closure(capsys):
    with report(6, "lcm extension grows coprime sets inside intersections",
                capsys):
        rng = random.Random(11)
        atoms = [Up(PrimesIdx(r, m)) for m in (2, 3, 4, 5) for r in range(1, m + 1)]
        pairs = []
        while len(pairs) < 20:
            a, b = rng.sample(atoms, 2)
            pairs.append((a, b))
        for a, b in pairs:
            assert is_n_free(a, BUDGET).proved and is_n_free(b, BUDGET).proved
            x = []
            for _ in range(8):
                w = lcm_extension(a, b, x, 10**5)
                assert w is not None, (render(a), render(b), x)
                check_budget = max(BUDGET, w.value)
                assert member(Inter(a, b), w.value, check_budget).proved
                assert all(math.gcd(w.value, y) == 1 for y in x)
                x.append(w.value)


def test_criterion_07_chain_invariant(capsys):
    with report(7, "length-12 residue chain: 78 + 78 pairs verified",
                capsys):
        chain = build_chain(12, scheme="residue")
        rep = verify_chain(chain, 10**6, BUDGET)
        divides = [p for p in rep.pairs if p.expectation == "divides"]
        omits = [p for p in rep.pairs if p.expectation == "omits"]
        assert len(divides) == 78 and len(omits) == 78
        for p in divides:
            assert p.verdict.proved, (p.beta, p.alpha)
        for p in omits:
            assert p.verdict.refuted, (p.beta, p.alpha)
            assert p.verdict.certificate is not None
        assert rep.passed


def test_criterion_08_scaling_preserves_divisibility(capsys, default_report):
    with report(8, "scaling by h <= 50 preserves proved tilde-divisibility",
                capsys):
        _assert_passed(default_report, "L3.7", "scale-shadow")


def test_criterion_09_upward_closed_members_in_d(capsys):
    with report(9, "upward-closed filter members belong to the derived filter",
                capsys):
        exprs = [e for e in load_corpus()
                 if is_upward_closed(e, BUDGET).proved]
        for f in default_filters():
            for e in exprs:
                if filter_member(f, e, BUDGET).proved:
                    assert d_member(f, e, BUDGET).proved, (f, render(e))


def test_criterion_10_factorial_shadow(capsys, default_report):
    with report(10, "factorial set membership, 2 <= n <= 12, m <= 12",
                capsys):
        _assert_passed(default_report, "E3.5b", "factorial-shadow")


def test_criterion_11_oracle_equivalence(capsys):
    with report(11, "member() vs direct-predicate oracle, corpus x m <= 10^4",
                capsys):
        bound = 10**4
        for e in load_corpus():
            truth = oracle_set(render(e), bound)
            has_down = contains_down(e)
            for m in range(1, bound + 1):
                v = member(e, m, BUDGET)
                if v.unknown:
                    assert has_down, (render(e), m)
                    continue
                assert v.proved == (m in truth), (render(e), m)
