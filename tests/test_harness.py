"""The default harness run, and the failure branch of every search-shaped
suite: the library is made to give one wrong answer in-process, and the
suite must fail with the counterexample as its detail and a replay that the
CLI answers with the verdict the suite saw."""

import json
import random
import time

import pytest

from divfilters import arith, chains, cli, filters, harness, semantics
from divfilters.antichain import LcmWitness
from divfilters.chains import build_chain
from divfilters.errors import IncompleteEnumerationError, PreconditionError
from divfilters.harness import HarnessParams, _sample_prime_sets, run_harness
from divfilters.setexpr import P, Factorials, Inter, Lit, Mult, Quot, Up, render
from divfilters.verdict import proved, refuted, unknown


# every case of the default run at seed 0, in report order
DEFAULT_CASES = {
    "E3.5b": ["factorial-shadow"],
    "L2.1a": ["case-rule-pointwise", "d-disjunction"],
    "L2.1b": ["fast-path-vs-unfolding"],
    "L3.4-eq3": ["mult24-self", "principal-2-6", "antichain-core", "mult26-self",
                 "mult50-self", "mult28-self", "mult4-self", "mult18-self"],
    "L3.7": ["scale-shadow"],
    "L5.3": [
        "N", "empty", "P", "factorials", "{1,2,3}", "{4,9,25}", "{2,3,5,7}", "mult(2)",
        "mult(6)", "mult(30)", "level(1)", "level(2)", "level(3)", "primesIdx(1,2)",
        "primesIdx(2,2)", "primesIdx(1,4)", "primesIdx(3,4)", "primesGeom(1,2)",
        "primesGeom(3,2)", "pow(P,2)", "pow(primesIdx(1,2),2)",
        "prodset(primesIdx(1,2),primesIdx(2,2))", "prodset(P,P)", "prodset({2,3,5},mult(2))",
        "comp(mult(2))", "comp(level(2))", "union(mult(2),mult(3))",
        "union(mult(4),union(mult(6),mult(9)))", "union(P,{1})", "inter(mult(2),mult(3))",
        "inter(level(2),comp({4}))", "inter(up(primesIdx(1,2)),up(primesIdx(2,2)))",
        "up({4,9})", "up(primesIdx(1,2))", "up(prodset(primesIdx(1,2),primesIdx(2,2)))",
        "up(inter(level(2),comp({4})))", "down({120,720})", "down(factorials)",
        "quot(mult(6),2)", "quot(up({4,9}),2)", "scale(mult(3),2)", "scale(P,6)",
        "pow(mult(2),2)",
    ],
    "T2.2": ["euclid-shadow"],
    "T3.3": ["principal-equivalence"],
    "T4.2": ["invariant-4", "chain-law"],
    "T5.4ii": [
        "gen:[up(primesIdx(1,2))] ∋ N",
        "gen:[up(primesIdx(1,2))] ∋ up(primesIdx(1,2))",
        "gen:[up(primesIdx(2,2))] ∋ N",
        "gen:[up(prodset(primesIdx(1,2),primesIdx(2,2)))] ∋ N",
        "gen:[up(prodset(primesIdx(1,2),primesIdx(2,2)))] ∋ "
        "inter(up(primesIdx(1,2)),up(primesIdx(2,2)))",
        "gen:[up(prodset(primesIdx(1,2),primesIdx(2,2)))] ∋ up(primesIdx(1,2))",
        "gen:[up(prodset(primesIdx(1,2),primesIdx(2,2)))] ∋ "
        "up(prodset(primesIdx(1,2),primesIdx(2,2)))",
    ],
    "T5.5": [
        "pair-0:up(primesIdx(5,5))|up(primesIdx(2,4))",
        "pair-1:up(primesIdx(4,5))|up(primesIdx(2,4))",
        "pair-2:up(primesIdx(1,2))|up(primesIdx(3,3))",
        "pair-3:up(primesIdx(4,4))|up(primesIdx(3,4))",
        "pair-4:up(primesIdx(2,4))|up(primesIdx(4,5))",
        "pair-5:up(primesIdx(5,5))|up(primesIdx(3,3))",
        "pair-6:up(primesIdx(3,4))|up(primesIdx(1,4))",
        "pair-7:up(primesIdx(1,5))|up(primesIdx(2,3))",
        "pair-8:up(primesIdx(4,4))|up(primesIdx(1,3))",
        "pair-9:up(primesIdx(3,3))|up(primesIdx(1,3))",
    ],
}
# the L5.3 cases whose expression has no cover and is not proved N-free, or
# whose exact antichain search stops at an Unknown
SKIPPED_L53 = {
    "N", "factorials", "{1,2,3}", "level(1)", "level(2)", "level(3)", "comp(mult(2))",
    "comp(level(2))", "inter(level(2),comp({4}))",
    "inter(up(primesIdx(1,2)),up(primesIdx(2,2)))", "up(inter(level(2),comp({4})))",
    "down({120,720})", "down(factorials)", "quot(mult(6),2)", "quot(up({4,9}),2)",
}


def test_default_run_at_seed_0_passes_every_case(default_report):
    assert default_report.seed == 0 and default_report.passed
    assert default_report.counts == {"pass": 62, "fail": 0, "skipped": 15}
    assert [(c.lemma_id, c.case_id) for c in default_report.cases] == [
        (lemma, case_id) for lemma, ids in DEFAULT_CASES.items() for case_id in ids]
    assert {c.case_id for c in default_report.cases if c.outcome == "skipped"} == SKIPPED_L53
    assert all(c.lemma_id == "L5.3" for c in default_report.cases if c.outcome == "skipped")


def _flip_member_at(monkeypatch, node_class, point):
    """member() answers the opposite of the truth for node_class at point."""
    right = semantics._HANDLERS[node_class]

    def wrong(e, m, budget):
        v = right(e, m, budget)
        if m != point:
            return v
        return refuted(budget) if v.proved else proved(budget)

    monkeypatch.setitem(semantics._HANDLERS, node_class, wrong)


def _flip_divides_at(monkeypatch, f_spec, g_spec, at_budget=None):
    """divides_tilde answers the opposite of the truth for one pair (only
    at_budget, if given), in the harness, in chains and in the CLI, which
    imports it when it runs."""
    right = filters.divides_tilde

    def wrong(f, g, budget=semantics.DEFAULT_BUDGET):
        v = right(f, g, budget)
        if (f.spec_text(), g.spec_text()) != (f_spec, g_spec) or at_budget not in (None, budget):
            return v
        return refuted(budget) if v.proved else proved(budget)

    monkeypatch.setattr(filters, "divides_tilde", wrong)
    monkeypatch.setattr(harness, "divides_tilde", wrong)
    monkeypatch.setattr(chains, "divides_tilde", wrong)


def _answer_prime_up_products(monkeypatch, verdict):
    """product_member answers `verdict` for every prime-up target of two
    generated filters (the collapse to the union of the factors)."""
    monkeypatch.setattr(filters, "three_valued_or", lambda a, b: verdict(a.budget))


def _failing(lemma, case_id, params=None):
    case = next(c for c in run_harness([lemma], params).cases if c.case_id == case_id)
    assert case.outcome == "fail"
    return case


def _replay(capsys, case):
    code = cli.main(case.replay)
    capsys.readouterr()
    return code


def test_l21a_case_rule_counterexample_replays(monkeypatch, capsys):
    _flip_member_at(monkeypatch, Quot, 7)
    case = _failing("L2.1a", "case-rule-pointwise")
    # the first seeded set fails at x = 7: its m is drawn right after the sets
    rng = random.Random(0)
    b_set = _sample_prime_sets(rng, 40)[0]
    m = rng.randint(1, 2000)
    assert m > 1  # so the suite's direct set is a quot node
    assert case.detail == str((sorted(b_set), m, 7))
    assert case.replay == ["member", render(Quot(Up(Lit(b_set)), m)), "7"]
    truth = any(7 * m % q == 0 for q in b_set)
    assert _replay(capsys, case) == (cli.EXIT_REFUTED if truth else cli.EXIT_PROVED)


def test_l21a_d_disjunction_counterexample_replays(monkeypatch, capsys):
    _answer_prime_up_products(monkeypatch, proved)
    case = _failing("L2.1a", "d-disjunction")
    # no finite prime set lies in D(F) or D(G), so the first target fails;
    # it is drawn after the case rule's 40 sets and 40 quotients
    rng = random.Random(0)
    _sample_prime_sets(rng, 40)
    for _ in range(40):
        rng.randint(1, 2000)
    b_set = _sample_prime_sets(rng, 10)[0]
    assert case.detail == str(sorted(b_set))
    assert case.replay == ["product-member", "gen:[up(primesIdx(1,2))]",
                           "gen:[up(primesIdx(2,2))]", render(Up(Lit(b_set)))]
    assert _replay(capsys, case) == cli.EXIT_PROVED


def test_l21b_disagreement_and_unknown_rate_fail(monkeypatch, capsys):
    _answer_prime_up_products(monkeypatch, proved)
    case = _failing("L2.1b", "fast-path-vs-unfolding")
    assert case.detail.startswith("fast path disagrees with unfolding, witness (")
    assert _replay(capsys, case) == cli.EXIT_PROVED

    _answer_prime_up_products(monkeypatch, unknown)
    case = _failing("L2.1b", "fast-path-vs-unfolding")
    assert (case.detail, case.replay) == ("unknown rate 400/400", None)


def test_t22_counterexample_replays(monkeypatch, capsys):
    _flip_member_at(monkeypatch, Up, 6)
    case = _failing("T2.2", "euclid-shadow")
    assert case.detail == "(2, 1, 6)"
    assert case.replay == ["product-member", "principal:1", "principal:6", "up({2})"]
    assert _replay(capsys, case) == cli.EXIT_REFUTED


def _flip_range_at(monkeypatch, target, point):
    """evaluate_range, and the CLI's enumerate, give the opposite membership
    of point in target."""
    right = semantics._range

    def wrong(e, limit, budget):
        proved_, unknown_ = right(e, limit, budget)
        if e == target and limit >= point:
            proved_[point] ^= 1
        return proved_, unknown_

    monkeypatch.setattr(semantics, "_range", wrong)


def test_t22_range_path_counterexample_replays(monkeypatch, capsys):
    # the range of up({2}) leaves out 6; the pointwise sample never sees it
    _flip_range_at(monkeypatch, Up(Lit(frozenset({2}))), 6)
    case = _failing("T2.2", "euclid-shadow")
    assert case.detail == "(2, 1, 6)"
    assert case.replay == ["enumerate", "up({2})", "--bound", "6"]
    assert cli.main(case.replay + ["--json"]) == cli.EXIT_PROVED
    assert json.loads(capsys.readouterr().out)["members"] == [2, 4]


@pytest.mark.parametrize("range_at, member_at, command", [
    (4, 6, "enumerate"), (6, 4, "product-member"), (6, 6, "product-member")])
def test_t22_reports_the_first_pair_either_path_fails(monkeypatch, range_at, member_at,
                                                      command):
    # on a tie the pointwise query is the replay
    _flip_range_at(monkeypatch, Up(Lit(frozenset({2}))), range_at)
    _flip_member_at(monkeypatch, Up, member_at)
    case = _failing("T2.2", "euclid-shadow")
    assert case.detail == str((2, 1, min(range_at, member_at)))
    assert case.replay[0] == command


def test_t22_skips_past_the_sieve_cap():
    start = time.perf_counter()
    [case] = run_harness(["T2.2"], HarnessParams(bound=1001)).cases
    assert time.perf_counter() - start < 1
    assert (case.case_id, case.outcome) == ("euclid-shadow", "skipped")
    assert case.detail == "bound^2 = 1002001 exceeds the sieve cap 1000000"


@pytest.mark.parametrize("budget", [1, 300, semantics.DEFAULT_BUDGET])
def test_t22_grid_equals_pointwise_product_member(budget):
    # T2.2 reads row a of its grid as the multiples a*b of one range of up({q})
    bound = 40
    points = [filters.principal(i) for i in range(1, bound + 1)]
    for q in arith.primes_upto(100):
        target = Up(Lit(frozenset({q})))
        proved_, unknown_ = semantics.evaluate_range(target, bound * bound, budget)
        for a in range(1, bound + 1):
            rows = (proved_[a : a * bound + 1 : a], unknown_[a : a * bound + 1 : a])
            for b in range(1, bound + 1):
                v = filters.product_member(points[a - 1], points[b - 1], target, budget)
                assert (rows[0][b - 1], rows[1][b - 1]) == (v.proved, v.unknown), (q, a, b)


def test_t33_counterexample_replays(monkeypatch, capsys):
    _flip_divides_at(monkeypatch, "principal:2", "principal:4")
    case = _failing("T3.3", "principal-equivalence")
    assert case.detail == "(2, 4)"
    assert case.replay == ["divides", "principal:2", "principal:4"]
    assert _replay(capsys, case) == cli.EXIT_REFUTED


def test_e35b_counterexample_replays(monkeypatch, capsys):
    _flip_member_at(monkeypatch, Factorials, 24)
    case = _failing("E3.5b", "factorial-shadow")
    assert case.detail == "(3, 12)"  # 12 * 2! = 4!
    assert case.replay == ["member", "factorials", "24"]
    assert _replay(capsys, case) == cli.EXIT_REFUTED


def test_l37_counterexample_replays(monkeypatch, capsys):
    _flip_divides_at(monkeypatch, "principal:3", "principal:3")
    case = _failing("L3.7", "scale-shadow")
    one = filters.principal(1)
    assert case.detail == str((one, one, 3))
    assert case.replay == ["divides", "principal:3", "principal:3"]
    assert _replay(capsys, case) == cli.EXIT_REFUTED


def test_replay_carries_the_suite_budget(monkeypatch, capsys):
    # the pair is flipped at budget 300 only, so only a replay at the
    # suite's budget asks what the suite saw
    _flip_divides_at(monkeypatch, "principal:2", "principal:4", at_budget=300)
    assert run_harness(["T3.3"]).passed
    case = _failing("T3.3", "principal-equivalence", HarnessParams(budget=300))
    assert case.replay == ["divides", "principal:2", "principal:4", "--budget", "300"]
    assert _replay(capsys, case) == cli.EXIT_REFUTED


def test_t42_chain_law_names_the_broken_link(monkeypatch, capsys):
    links = [f.spec_text() for f in build_chain(6).links]
    _flip_divides_at(monkeypatch, links[2], links[3])
    case = _failing("T4.2", "chain-law")
    assert case.detail == "broken link 2 to 3"
    assert case.replay == ["divides", links[2], links[3]]
    assert _replay(capsys, case) == cli.EXIT_REFUTED


def test_t42_invariant_names_the_violated_pair(monkeypatch, capsys):
    chain = build_chain(6)
    first_member = filters.make_filter([Up(chain.family[0])]).spec_text()
    _flip_divides_at(monkeypatch, first_member, chain.links[1].spec_text())
    case = _failing("T4.2", "invariant-4")
    assert case.detail == "violated pairs [(0, 1)]"
    assert case.replay == ["chain-verify", "6", "--scheme", "residue", "--bound", "1000000"]
    assert _replay(capsys, case) == cli.EXIT_REFUTED


def test_l53_names_the_least_missing_antichain_size(monkeypatch):
    right = harness.find_antichain_of_size
    monkeypatch.setattr(harness, "find_antichain_of_size", lambda e, t, bound, budget:
                        None if t >= 3 else right(e, t, bound, budget))
    case = _failing("L5.3", "P", HarnessParams(corpus=[P]))
    assert case.detail == "no antichain of size 3"
    assert case.replay == ["antichain", "P", "--bound", "100000", "--greedy"]


def test_l53_skips_an_incomplete_enumeration(monkeypatch):
    def incomplete(e, bound, mode, budget):
        raise IncompleteEnumerationError("an Unknown member")

    monkeypatch.setattr(harness, "max_strong_antichain", incomplete)
    [case] = run_harness(["L5.3"], HarnessParams(corpus=[Mult(6)])).cases
    assert (case.case_id, case.outcome, case.detail) == (
        "mult(6)", "skipped", "incomplete enumeration")


def test_t55_lcm_outside_the_intersection_replays(monkeypatch, capsys):
    monkeypatch.setattr(harness, "lcm_extension",
                        lambda a, b, x, limit, budget: LcmWitness(1, 1, 1))
    a, b = harness._nfree_up_pairs(random.Random(0), 1)[0]
    case = _failing("T5.5", f"pair-0:{render(a)}|{render(b)}")
    assert case.detail == "lcm 1 not in intersection"
    assert case.replay == ["member", render(Inter(a, b)), "1"]
    assert _replay(capsys, case) == cli.EXIT_REFUTED

    # no CLI query asks for an extension, so that failure has no replay
    monkeypatch.setattr(harness, "lcm_extension", lambda a, b, x, limit, budget: None)
    case = _failing("T5.5", case.case_id)
    assert (case.detail, case.replay) == ("no extension of X=[]", None)


@pytest.mark.parametrize("field", ["bound", "budget", "k"])
@pytest.mark.parametrize("value", [0, -1])
def test_harness_params_reject_non_naturals(field, value):
    with pytest.raises(PreconditionError, match=field):
        HarnessParams(**{field: value})
    assert getattr(HarnessParams(**{field: 1}), field) == 1


@pytest.mark.parametrize("lemma", harness.LEMMA_IDS)
def test_every_suite_rejects_a_missing_budget(lemma):
    # bound and k have per-suite defaults; budget has none
    with pytest.raises(PreconditionError, match="budget"):
        run_harness([lemma], HarnessParams(budget=None))


def test_t55_lcm_sharing_a_factor_with_x_fails_without_replay(monkeypatch):
    # every extension is the one of the empty X, so the second repeats the first
    right = harness.lcm_extension
    monkeypatch.setattr(harness, "lcm_extension",
                        lambda a, b, x, limit, budget: right(a, b, [], limit, budget))
    a, b = harness._nfree_up_pairs(random.Random(0), 1)[0]
    case = _failing("T5.5", f"pair-0:{render(a)}|{render(b)}")
    w = right(a, b, [], 10**5, semantics.DEFAULT_BUDGET).value
    assert (case.detail, case.replay) == (f"lcm {w} not coprime to X=[{w}]", None)


def test_t55_skips_a_pair_not_proved_n_free(monkeypatch):
    monkeypatch.setattr(harness, "is_n_free", lambda e, budget: unknown(budget))
    cases = run_harness(["T5.5"]).cases
    assert len(cases) == 10
    assert {(c.outcome, c.detail) for c in cases} == {("skipped", "pair not proved N-free")}
