"""The verdict contract: the state flags, the constructors and the
three-valued connectives."""

import itertools

import pytest

from divfilters.verdict import (
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


def test_constructors_and_flags():
    for state, build in BUILD.items():
        v = build(7, "cert")
        assert type(v) is Verdict
        assert (v.state, v.budget, v.certificate) == (state, 7, "cert")
        assert build(7).certificate is None
        assert (v.proved, v.refuted, v.unknown, v.decided) == (
            state is P, state is R, state is U, state is not U)


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
