import pytest

from oracle import oracle_set

from divfilters import default_filters, load_corpus
from divfilters.errors import FilterConstructionError, ParseError, PreconditionError
from divfilters.filters import (
    d_member,
    d_set,
    divides_tilde,
    filter_member,
    interpolation_check,
    make_filter,
    parse_filter_spec,
    principal,
    product_member,
    scale_filter,
)
from divfilters.semantics import (
    _as_up,
    evaluate_range,
    facts,
    is_upward_closed,
    member,
)
from divfilters.setexpr import (
    Comp,
    Inter,
    Lit,
    Mult,
    PrimesIdx,
    Up,
    parse_expr,
    render,
)
from divfilters.verdict import ProofState

BUDGET = 10**4


def test_make_filter_examples():
    f = principal(6)
    assert f.core == Lit(frozenset({6})) and f.point == 6
    g = make_filter([Mult(2), Mult(3)])
    assert g.core == Inter(Mult(2), Mult(3)) and g.fip_witness == 6
    with pytest.raises(FilterConstructionError):
        make_filter([Mult(2), Comp(Mult(2))])


def test_parse_filter_spec():
    assert parse_filter_spec("principal:6").point == 6
    g = parse_filter_spec("gen:[mult(2);mult(3)]")
    assert g.gens == (Mult(2), Mult(3))
    with pytest.raises(ParseError):
        parse_filter_spec("principal:0")
    with pytest.raises(ParseError):
        parse_filter_spec("nonsense")


def test_filter_member_examples():
    assert filter_member(principal(6), Mult(3), BUDGET).proved
    v = filter_member(make_filter([Mult(6)]), Mult(2), BUDGET)
    assert v.proved and v.certificate == "structural"
    v = filter_member(
        make_filter([Up(PrimesIdx(1, 2))]), Lit(frozenset({4})), BUDGET
    )
    assert v.refuted and v.certificate == 2


def test_divides_tilde_examples():
    assert divides_tilde(principal(6), principal(18), BUDGET).proved
    assert divides_tilde(principal(6), principal(8), BUDGET).refuted
    assert divides_tilde(
        make_filter([Mult(6)]), make_filter([Mult(12)]), BUDGET
    ).proved
    v = divides_tilde(
        make_filter([Up(PrimesIdx(1, 2))]),
        make_filter([Up(PrimesIdx(2, 2))]),
        BUDGET,
    )
    assert v.refuted and v.certificate == 3
    # a union core is covered when each side is
    v = divides_tilde(parse_filter_spec("gen:[mult(2)]"),
                      parse_filter_spec("gen:[union(mult(4),mult(6))]"), BUDGET)
    assert v.proved and v.certificate == "structural"


def test_divides_tilde_at_a_principal_g_is_membership():
    # F |~ G for G principal at n holds exactly when n is in up(core(F)), so
    # the verdict is that membership's, also for n past the budget
    budget = 300
    for f in default_filters():
        if f.principal:
            continue
        for n in list(range(1, 61)) + [301, 20001]:
            v = divides_tilde(f, principal(n), budget)
            w = member(Up(f.core), n, budget)
            assert (v.state, v.certificate) == (w.state, w.certificate), (f, n)
    f = parse_filter_spec("gen:[mult(2)]")
    v = divides_tilde(f, principal(20), BUDGET)
    assert v.proved and v.certificate == 2
    v = divides_tilde(f, principal(20001), BUDGET)
    assert v.refuted and v.certificate is None


def test_product_member_examples():
    assert product_member(principal(4), principal(9), Mult(6), BUDGET).proved
    v = product_member(
        make_filter([Up(PrimesIdx(1, 4))]),
        make_filter([Up(PrimesIdx(2, 4))]),
        Up(PrimesIdx(3, 4)),
        BUDGET,
    )
    assert v.refuted
    v = product_member(principal(2), make_filter([Mult(3)]), Mult(6), BUDGET)
    assert v.proved


def test_product_member_principal_law():
    for f in (2, 3, 5, 7):
        for g in (2, 4, 9):
            for e in (Mult(6), Mult(4), parse_expr("level(2)")):
                assert (
                    product_member(principal(f), principal(g), e, BUDGET).state
                    is member(e, f * g, BUDGET).state
                )


def test_d_member_examples():
    assert d_member(principal(6), Mult(3), BUDGET).proved
    v = d_member(principal(6), Mult(4), BUDGET)
    assert v.refuted
    # an upward-closed member of the filter is in D(F)
    assert d_member(principal(6), Mult(2), BUDGET).proved


def test_a_sub_h_examples():
    # A_H(e) = {m : e/m in H} for a principal H at h is quot(e,h)
    pred = parse_expr("quot(mult(6),2)")
    for m in range(1, 300):
        assert member(pred, m, BUDGET).proved == (m % 3 == 0)
    e = parse_expr("up({4,9})")
    pred = parse_expr("quot(up({4,9}),1)")
    for m in range(1, 300):
        assert member(pred, m, BUDGET).proved == member(e, m, BUDGET).proved
    pred = parse_expr("quot(up({4}),2)")
    for m in range(1, 300):
        assert member(pred, m, BUDGET).proved == (m % 2 == 0)


def test_a_sub_h_upward_closed_when_host_is():
    pred = parse_expr("quot(mult(6),2)")
    for m in (3, 6, 9):
        for k in range(2, 21):
            if member(pred, m, BUDGET).proved:
                assert member(pred, k * m, BUDGET).proved


def _reference_d_state(e, n, b):
    """The reference state of n in {m : mN <= e}: decided by rule for mult
    and for upward-closed sets, else by a search of the multiples of n up
    to the budget for one outside e."""
    if isinstance(e, Mult):
        return ProofState.PROVED if n % e.n == 0 else ProofState.REFUTED
    if is_upward_closed(e, 1).proved:
        v = member(e, n, b)
        if v.decided:
            return v.state
    k = 1
    while k <= max(1, b // n):
        if member(e, n * k, b).refuted:
            return ProofState.REFUTED
        k += 1
    return ProofState.UNKNOWN


def test_d_set_equals_the_reference_predicate():
    # for n > b the reference still inspected n itself; d_set inspects
    # nothing past the budget, so the comparison stops at b
    for e in load_corpus():
        d = d_set(e)
        for b in (1, 50, 300, 2000):
            for n in range(1, b + 1):
                assert member(d, n, b).state is _reference_d_state(e, n, b), (render(e), n, b)


def test_product_member_equals_brute_force():
    # generated factors and targets off the prime-up fast path whose states
    # are all decided up to the budget: F*G holds e exactly when every
    # product a*b <= budget of core members lies in e
    budget = 300
    gens = [f for f in default_filters() if not f.principal]
    targets = []
    for e in load_corpus():
        e_up = _as_up(e)
        if e_up is not None and facts(e_up.inner).primes:
            continue
        if 2 not in evaluate_range(e, budget, budget):
            targets.append((e, oracle_set(render(e), budget)))
    assert len(targets) >= 35
    for i, f in enumerate(gens):
        a = sorted(oracle_set(render(f.core), budget))
        for g in gens[i:]:
            b = oracle_set(render(g.core), budget)
            products = {x * y for x in a for y in b if x * y <= budget}
            for e, members in targets:
                v = product_member(f, g, e, budget)
                outside = sorted(products - members)
                assert v.refuted == bool(outside), (f, g, render(e))
                if outside:
                    assert v.certificate == outside[0], (f, g, render(e))


def test_product_member_inspects_products_up_to_the_budget():
    # the least product of the core outside the target is 35*35 = 1225: a
    # product of equal factors, which prodset alone leaves out
    f = parse_filter_spec("gen:[up(prodset(primesIdx(1,2),primesIdx(2,2)))]")
    e = parse_expr("union(mult(2),mult(3))")
    assert product_member(f, f, e, 300).unknown
    v = product_member(f, f, e, 2000)
    assert v.refuted and v.certificate == 1225


def test_product_member_of_a_refutation_free_pair_stops_at_the_budget():
    # every product of mult(2) and mult(3) is a multiple of 6, so no natural
    # refutes comp({5}), and no structural rule proves it
    f = parse_filter_spec("gen:[mult(2)]")
    g = parse_filter_spec("gen:[mult(3)]")
    assert product_member(f, g, parse_expr("comp({5})")).unknown


def test_interpolation_examples():
    f = make_filter([Mult(24)])
    v = interpolation_check(f, f, 10**3)
    assert v.proved
    a, c, b = v.certificate
    assert a != c != b and c % a == 0 and b % c == 0
    assert interpolation_check(principal(2), principal(6), 10**3).refuted
    anti = make_filter([Lit(frozenset({2, 3, 5, 7}))])
    assert interpolation_check(anti, anti, 10).refuted
    # down(level(2)) is Unknown at 8, 12, ... at budget 100, so the
    # enumeration of its core is incomplete
    v = interpolation_check(parse_filter_spec("gen:[down(level(2))]"),
                            parse_filter_spec("gen:[mult(2)]"), 50, 100)
    assert v.unknown and v.budget == 100 and v.certificate is None


def test_scale_filter():
    assert scale_filter(principal(6), 5).point == 30
    f = make_filter([Mult(6)])
    sf = scale_filter(f, 4)
    # scaled core denotes 4 * 6N = multiples of 24
    for m in range(1, 200):
        assert member(sf.core, m, BUDGET).proved == (m % 24 == 0)
    assert scale_filter(f, 1) is f
    with pytest.raises(PreconditionError, match="scale factor"):
        scale_filter(f, 0)


def test_eq1_upward_closed_members_are_in_d():
    cases = [
        (principal(6), Mult(2)),
        (principal(6), Mult(3)),
        (make_filter([Mult(12)]), Mult(4)),
        (make_filter([Up(PrimesIdx(1, 2))]), Up(PrimesIdx(1, 2))),
    ]
    for f, e in cases:
        assert is_upward_closed(e, BUDGET).proved
        assert filter_member(f, e, BUDGET).proved
        assert d_member(f, e, BUDGET).proved
