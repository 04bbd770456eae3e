"""The failure branch of every search-shaped harness suite: the library is
made to give one wrong answer in-process, and the suite must fail with the
counterexample as its detail and a replay that the CLI answers with the
verdict the suite saw."""

import random

import pytest

from divfilters import cli, filters, harness, semantics
from divfilters.antichain import LcmWitness
from divfilters.chains import build_chain
from divfilters.errors import PreconditionError
from divfilters.harness import HarnessParams, _sample_prime_sets, run_harness
from divfilters.setexpr import Factorials, Inter, Lit, Quot, Up, render
from divfilters.verdict import proved, refuted, unknown


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
    at_budget, if given), both in the harness and in the CLI, which imports
    it when it runs."""
    right = filters.divides_tilde

    def wrong(f, g, budget=semantics.DEFAULT_BUDGET):
        v = right(f, g, budget)
        if (f.spec_text(), g.spec_text()) != (f_spec, g_spec) or at_budget not in (None, budget):
            return v
        return refuted(budget) if v.proved else proved(budget)

    monkeypatch.setattr(filters, "divides_tilde", wrong)
    monkeypatch.setattr(harness, "divides_tilde", wrong)


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
