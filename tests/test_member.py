import pytest

from oracle import oracle_set

from divfilters import load_corpus
from divfilters.arith import divisors
from divfilters.errors import PreconditionError
from divfilters.semantics import (
    _iroot,
    enumerate_upto,
    evaluate_range,
    is_infinite,
    is_upward_closed,
    member,
    quotient_case_rule,
    simplify,
    structurally_subset,
)
from divfilters.setexpr import (
    EMPTY,
    FACTORIALS,
    N,
    Down,
    Inter,
    Level,
    Lit,
    Mult,
    Quot,
    Up,
    parse_expr,
    render,
)

BUDGET = 10**4


def test_member_examples():
    assert member(Mult(6), 18, BUDGET).proved
    v = member(Up(Lit(frozenset({4, 9}))), 12, BUDGET)
    assert v.proved
    v = member(Down(FACTORIALS), 5, BUDGET)
    assert v.proved and v.certificate == 120
    v = member(parse_expr("prodset(primesIdx(1,2),primesIdx(2,2))"), 15, BUDGET)
    assert v.proved


def test_member_rejects_zero_budget():
    with pytest.raises(PreconditionError):
        member(Mult(2), 4, 0)


def test_member_and_enumerate_reject_bad_arguments():
    with pytest.raises(PreconditionError, match="naturals >= 1"):
        member(parse_expr("N"), 0)
    with pytest.raises(PreconditionError, match="must not exceed the budget"):
        enumerate_upto(parse_expr("N"), 20, 10)


def test_enumerate_examples():
    members, complete = enumerate_upto(Level(2), 10, BUDGET)
    assert members == [4, 6, 9, 10] and complete
    members, complete = enumerate_upto(Inter(Mult(2), Mult(3)), 20, BUDGET)
    assert members == [6, 12, 18] and complete
    members, complete = enumerate_upto(
        parse_expr("prodset(primesIdx(1,2),primesIdx(2,2))"), 15, BUDGET
    )
    assert members == [6, 14, 15] and complete


def test_is_upward_closed():
    v = is_upward_closed(Mult(6), BUDGET)
    assert v.proved and v.certificate == "structural"
    v = is_upward_closed(Lit(frozenset({4})), BUDGET)
    assert v.refuted and v.certificate == (4, 8)
    v = is_upward_closed(Level(2), BUDGET)
    assert v.refuted and v.certificate == (4, 8)


def test_is_infinite():
    assert is_infinite(parse_expr("P"), BUDGET).proved
    assert is_infinite(Lit(frozenset({1, 2, 3})), BUDGET).refuted
    assert is_infinite(Inter(Mult(4), Level(2)), BUDGET).unknown


def test_quotient_case_rule_examples():
    assert quotient_case_rule(frozenset({2, 3}), 10) == N
    assert quotient_case_rule(frozenset({2, 3}), 35) == Up(Lit(frozenset({2, 3})))
    assert quotient_case_rule(frozenset({5}), 1) == Up(Lit(frozenset({5})))
    with pytest.raises(PreconditionError):
        quotient_case_rule(frozenset({4}), 3)
    with pytest.raises(PreconditionError):
        quotient_case_rule(frozenset({2, 3}), 0)


def test_quotient_case_rule_agrees_pointwise():
    for b_set in (frozenset({2, 3}), frozenset({5, 7}), frozenset({3})):
        for m in (1, 2, 6, 35, 99):
            rule = quotient_case_rule(b_set, m)
            direct = Quot(Up(Lit(b_set)), m)
            for x in range(1, 300):
                assert member(rule, x, BUDGET).proved == member(direct, x, BUDGET).proved


def test_up_idempotence():
    for e in (Mult(6), Lit(frozenset({4, 9})), parse_expr("level(2)")):
        for m in range(1, 200):
            assert (
                member(Up(Up(e)), m, BUDGET).proved == member(Up(e), m, BUDGET).proved
            )


def test_subset_of_own_upward_closure():
    for e in (Mult(4), parse_expr("P"), Lit(frozenset({6, 10}))):
        for m in range(1, 200):
            if member(e, m, BUDGET).proved:
                assert member(Up(e), m, BUDGET).proved


def test_quotient_law():
    for e in (Mult(6), Up(Lit(frozenset({4, 9}))), parse_expr("level(2)")):
        for n in (1, 2, 3):
            for m in range(1, 100):
                assert (
                    member(Quot(e, n), m, BUDGET).proved
                    == member(e, m * n, BUDGET).proved
                )


def test_verdict_monotonicity_two_budgets():
    small, large = 100, 10**4
    for e in load_corpus():
        for m in (1, 2, 6, 30, 97):
            lo = member(e, m, small)
            hi = member(e, m, large)
            if lo.decided:
                assert lo.state is hi.state


def test_simplify_preserves_membership():
    for e in load_corpus():
        s = simplify(e)
        for m in range(1, 200):
            assert member(e, m, BUDGET).proved == member(s, m, BUDGET).proved


def test_structural_subset_is_sound():
    pairs = [
        (Mult(12), Mult(6)),
        (Inter(Mult(2), Mult(3)), Mult(2)),
        (parse_expr("scale(mult(3),2)"), Mult(2)),
        (parse_expr("up(prodset(primesIdx(1,2),primesIdx(2,2)))"),
         parse_expr("up(primesIdx(1,2))")),
    ]
    for a, b in pairs:
        assert structurally_subset(a, b, BUDGET)
        truth_a = oracle_set(render(a), 300)
        truth_b = oracle_set(render(b), 300)
        assert truth_a <= truth_b


# one input per simplify rewrite that no corpus expression reaches
@pytest.mark.parametrize("text, rewritten", [
    ("scale({2,3},5)", "{10,15}"),
    ("scale(scale(P,2),5)", "scale(P,10)"),
    ("scale(N,4)", "mult(4)"),
    ("scale(empty,4)", "empty"),
    ("quot(quot(P,2),3)", "quot(P,6)"),
    ("quot(N,5)", "N"),
    ("quot(empty,5)", "empty"),
    ("quot(up({2,3}),10)", "N"),
    ("quot(up({2,3}),35)", "up({2,3})"),
])
def test_simplify_rewrite(text, rewritten):
    e = parse_expr(text)
    s = simplify(e)
    assert render(s) == rewritten
    truth = oracle_set(render(e), 300)
    for m in range(1, 301):
        assert member(e, m, BUDGET).proved == member(s, m, BUDGET).proved == (m in truth), m


# one input per structural subset branch that no other test reaches
@pytest.mark.parametrize("a, b", [
    ("empty", "mult(7)"),
    ("union(mult(4),mult(6))", "mult(2)"),
    ("prodset(primesIdx(1,2),primesIdx(2,2),P)", "up(prodset(primesIdx(1,2),primesIdx(2,2)))"),
    ("scale(prodset(P,P),2)", "up(scale(P,2))"),
    ("pow(P,2)", "up(P)"),
])
def test_structural_subset_rule(a, b):
    a, b = parse_expr(a), parse_expr(b)
    assert structurally_subset(a, b, BUDGET)
    assert oracle_set(render(a), 300) <= oracle_set(render(b), 300)


def test_structural_subset_gives_up_past_its_depth_guard():
    def nested(depth):
        e = Mult(4)
        for _ in range(depth):
            e = Inter(e, N)
        return e

    assert structurally_subset(nested(30), Mult(2), BUDGET)
    assert oracle_set(render(nested(45)), 300) <= oracle_set(render(Mult(2)), 300)
    assert not structurally_subset(nested(45), Mult(2), BUDGET)  # no rule applied


def test_iroot_is_exact_for_huge_values():
    m = 10**400 + 1
    x = _iroot(m, 3)
    assert x**3 <= m < (x + 1) ** 3
    assert _iroot(10**399, 3) == 10**133
    for n in (2, 3, 5, 7, 64):
        for base in (1, 2, 3, 10**50 + 7):
            for value in (base**n - 1, base**n, base**n + 1):
                if value >= 1:
                    root = _iroot(value, n)
                    assert root**n <= value < (root + 1) ** n
    assert member(parse_expr("pow(P,3)"), m, BUDGET).refuted
    assert member(parse_expr("pow(P,3)"), 1000003**3, BUDGET).proved


@pytest.mark.parametrize("budget", [1, 100, 10**4])
def test_down_of_a_literal_is_decided(budget):
    e = parse_expr("down({120,720})")
    proved_, unknown_ = evaluate_range(e, 1000, budget)
    assert 1 not in unknown_
    for m in range(1, 1001):
        v = member(e, m, budget)
        if 120 % m == 0 or 720 % m == 0:
            assert v.proved, m
            assert v.certificate == (120 if 120 % m == 0 else 720), m
        else:
            assert v.refuted, m
        assert proved_[m] == v.proved, m
    empty = Down(EMPTY)
    assert all(member(empty, m, budget).refuted for m in range(1, 1001))
    assert evaluate_range(empty, 1000, budget) == (bytearray(1001), bytearray(1001))


def _down_scan(inner, m, budget):
    """The scan over multiples k*m <= budget that _member_down makes for an
    inner set with no fast path."""
    k = 1
    while k * m <= budget:
        if member(inner, k * m, budget).proved:
            return ("proved", k * m)
        k += 1
    return ("unknown-at-bound", None)


@pytest.mark.parametrize("budget", [1, 2, 6, 100, 720, 5040, 10**4])
def test_down_of_factorials_walk_equals_the_scan(budget):
    e = Down(FACTORIALS)
    for m in range(1, 3001):
        v = member(e, m, budget)
        assert (v.state.value, v.certificate) == _down_scan(FACTORIALS, m, budget), m
        assert v.budget == budget


def test_down_of_factorials_reaches_a_large_factorial():
    v = member(Down(FACTORIALS), 11, 39916800)
    assert v.proved and v.certificate == 39916800
    assert member(Down(FACTORIALS), 11, 39916799).unknown


def test_down_of_a_finite_set_is_finite():
    members, complete = enumerate_upto(parse_expr("down({120,720})"), 100, BUDGET)
    assert complete and members == [m for m in range(1, 101) if 720 % m == 0]
    for text in ("down({120,720})", "down(empty)", "down(scale({7},3))"):
        v = is_infinite(parse_expr(text), BUDGET)
        assert v.refuted and v.certificate == "structural", text
    assert is_infinite(parse_expr("down(mult(4))"), BUDGET).proved


def _up_by_divisors(inner, m, budget):
    """The loop over every divisor of m that _member_up makes for an inner
    set with no fast path: the least Proved divisor, else Unknown or Refuted."""
    saw_unknown = False
    for d in divisors(m):
        v = member(inner, d, budget)
        if v.proved:
            return ("proved", d)
        saw_unknown = saw_unknown or v.unknown
    return ("unknown-at-bound" if saw_unknown else "refuted", None)


# inner sets whose members are products of k distinct primes, Unknown
# factors included, which up() asks only about such divisors of m; then
# sets of other shapes, which it asks about every divisor
UPS = [
    "up(P)",
    "up(primesIdx(2,3))",
    "up(primesGeom(1,2))",
    "up(union(primesIdx(1,3),{35,2}))",
    "up(inter(P,down(factorials)))",
    "up(inter(comp({7}),P))",
    "up(prodset(primesIdx(1,2)))",
    "up(prodset(P,P))",
    "up(prodset(primesIdx(1,2),primesIdx(2,2)))",
    "up(prodset(inter(P,down(factorials)),P))",
    "up(prodset(primesIdx(1,3),P,inter(down(mult(30)),P)))",
    "up(prodset(P,mult(4)))",
    "up(prodset(level(2),P))",
    "up(union(P,{4}))",
]


@pytest.mark.parametrize("budget", [50, 10**4])
@pytest.mark.parametrize("text", UPS)
def test_up_equals_the_divisor_loop(text, budget):
    e = parse_expr(text)
    big = [2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23, 2**40 * 999983, 30 * 1000003 * 10007]
    for m in [*range(1, 1501), *big]:
        v = member(e, m, budget)
        assert (v.state.value, v.certificate) == _up_by_divisors(e.inner, m, budget), m
