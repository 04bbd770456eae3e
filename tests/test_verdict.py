"""The verdict contract: the state flags, the constructors, the shared
certificate-free verdicts and the three-valued connectives."""

import ast
import itertools
import pathlib
import sys
import threading

import pytest

from divfilters import verdict
from divfilters.semantics import member
from divfilters.setexpr import Comp, Mult, parse_expr
from divfilters.verdict import (
    DEFAULT_BUDGET,
    PROVED_AT,
    REFUTED_AT,
    SHARED_BUDGETS,
    UNKNOWN_AT,
    ProofState,
    Verdict,
    proved,
    refuted,
    three_valued_and,
    three_valued_not,
    three_valued_or,
    unknown,
)

BUILD = {ProofState.PROVED: proved, ProofState.REFUTED: refuted,
         ProofState.UNKNOWN: unknown}
P, R, U = ProofState.PROVED, ProofState.REFUTED, ProofState.UNKNOWN
SHARED = {P: PROVED_AT, R: REFUTED_AT, U: UNKNOWN_AT}


def _flags_match_state(v):
    return (v.proved, v.refuted, v.unknown, v.decided) == (
        v.state is P, v.state is R, v.state is U, v.state is not U)


def test_constructors_and_flags():
    for state, build in BUILD.items():
        v = build(7, "cert")
        assert type(v) is Verdict
        assert (v.state, v.budget, v.certificate) == (state, 7, "cert")
        assert build(7).certificate is None
        for w in (v, build(7), Verdict(state, 7), Verdict(state, 7, 3), SHARED[state][7]):
            assert type(w) is Verdict and w.state is state
            assert _flags_match_state(w), w


def _clear_shared():
    # other tests in this process may have filled the tables
    for table in SHARED.values():
        table.clear()


def test_certificate_free_verdicts_are_shared_per_budget():
    _clear_shared()
    for state, build in BUILD.items():
        v = build(11)
        assert v is build(11) is SHARED[state][11]
        assert (v.state, v.budget, v.certificate) == (state, 11, None)
        assert build(12) is not v and build(12).budget == 12
        assert build(11, "cert") is not build(11, "cert")
    # member answers with the same objects, whatever expression it asks
    assert member(Mult(2), 4, 11) is member(parse_expr("N"), 9, 11) is proved(11)
    assert member(Mult(2), 3, 11) is member(parse_expr("P"), 9, 11) is refuted(11)
    assert member(parse_expr("down(level(5))"), 3, 11) is unknown(11)
    assert member(Mult(2), 3, 12) is refuted(12) is not refuted(11)


def test_at_most_64_budgets_are_stored_per_state():
    _clear_shared()
    assert SHARED_BUDGETS == 64
    for state, build in BUILD.items():
        table = SHARED[state]
        assert build(DEFAULT_BUDGET) is build(DEFAULT_BUDGET)
        for budget in range(1, SHARED_BUDGETS):
            assert build(budget) is build(budget)
        assert len(table) == SHARED_BUDGETS
        v = build(1000)
        assert (v.state, v.budget, v.certificate) == (state, 1000, None)
        assert _flags_match_state(v)
        assert 1000 not in table and build(1000) is not v
        assert len(table) == SHARED_BUDGETS
        assert build(1) is table[1] and build(DEFAULT_BUDGET) is table[DEFAULT_BUDGET]


def test_one_off_budgets_cannot_crowd_out_the_default_budget():
    _clear_shared()
    for state, build in BUILD.items():
        table = SHARED[state]
        for budget in range(1, 3 * SHARED_BUDGETS):
            build(budget)
        assert len(table) == SHARED_BUDGETS - 1 and DEFAULT_BUDGET not in table
        v = build(DEFAULT_BUDGET)
        assert table[DEFAULT_BUDGET] is v is build(DEFAULT_BUDGET)
        assert len(table) == SHARED_BUDGETS
    assert member(Mult(2), 2) is PROVED_AT[DEFAULT_BUDGET]


def test_concurrent_misses_share_one_verdict_and_keep_the_bound():
    _clear_shared()
    budgets = range(1, 3 * SHARED_BUDGETS)
    results = [None] * 4
    start = threading.Barrier(len(results))

    def ask(i):
        start.wait()
        results[i] = [refuted(b) for b in budgets]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(i,)) for i in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(REFUTED_AT) == SHARED_BUDGETS - 1
    for b, answers in zip(budgets, zip(*results)):
        assert all(v.budget == b and v.refuted for v in answers)
        if b in REFUTED_AT:
            assert all(v is REFUTED_AT[b] for v in answers), b


def test_unregistered_node_class_raises_type_error_at_top_level_and_nested():
    class Stranger:
        pass

    with pytest.raises(TypeError, match="unknown node"):
        member(Stranger(), 6)
    with pytest.raises(TypeError, match="unknown node"):
        member(Comp(Stranger()), 6)


def test_no_code_in_the_package_assigns_to_a_verdict():
    # a shared verdict is returned to every caller at its budget, so one
    # assignment would change every later answer; only an object's own
    # methods store these fields (Verdict's and the shared tables' __init__)
    fields = set(Verdict.__slots__)
    stores = []
    for path in sorted(pathlib.Path(verdict.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)) \
                    and node.attr in fields \
                    and not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                stores.append(f"{path.name}:{node.lineno}")
    assert stores == []


def test_not_swaps_decided_states_and_keeps_the_certificate():
    for state, build in BUILD.items():
        v = build(5, ("a", 1))
        out = three_valued_not(v)
        assert out.state is {P: R, R: P, U: U}[state]
        assert (out.budget, out.certificate) == (5, ("a", 1))
        # a decided operand gives a new verdict, an Unknown one is returned
        assert (out is v) == (state is U)


# (a, b) -> (state, which operand is returned: "a", "b" or None for a new one)
AND = {
    (R, P): (R, "a"), (R, R): (R, "a"), (R, U): (R, "a"),
    (P, R): (R, "b"), (U, R): (R, "b"),
    (P, P): (P, None), (P, U): (U, None), (U, P): (U, None), (U, U): (U, None),
}
OR = {
    (P, P): (P, "a"), (P, R): (P, "a"), (P, U): (P, "a"),
    (R, P): (P, "b"), (U, P): (P, "b"),
    (R, R): (R, None), (R, U): (U, None), (U, R): (U, None), (U, U): (U, None),
}


@pytest.mark.parametrize("op, table", [(three_valued_and, AND), (three_valued_or, OR)])
@pytest.mark.parametrize("budgets", [(3, 3), (3, 8), (8, 3)])
def test_and_or_over_every_pair_of_states(op, table, budgets):
    assert set(table) == set(itertools.product(ProofState, repeat=2))
    for (sa, sb), (state, returned) in table.items():
        a = BUILD[sa](budgets[0], "left")
        b = BUILD[sb](budgets[1], "right")
        out = op(a, b)
        assert out.state is state, (sa, sb)
        if returned == "a":
            assert out is a, (sa, sb)
        elif returned == "b":
            assert out is b, (sa, sb)
        else:
            assert out is not a and out is not b, (sa, sb)
            assert out.budget == max(budgets) and out.certificate is None, (sa, sb)
