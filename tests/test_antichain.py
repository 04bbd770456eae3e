import heapq
import math
from collections import defaultdict
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import oracle_set

from divfilters import antichain, arith, load_corpus
from divfilters.antichain import (
    covering_witness,
    extend_antichain,
    find_antichain_of_size,
    is_n_free,
    lcm_extension,
    max_strong_antichain,
)
from divfilters.errors import IncompleteEnumerationError, PreconditionError
from divfilters.semantics import enumerate_upto, member
from divfilters.setexpr import Level, Lit, Mult, Union, Up, parse_expr, render

BUDGET = 10**4


def _pairwise_coprime(values) -> bool:
    return all(math.gcd(a, b) == 1 for a, b in combinations(values, 2))


def _brute_max_antichain(candidates: list[int]) -> int:
    best = 0
    for size in range(len(candidates), 0, -1):
        if size <= best:
            break
        for combo in combinations(candidates, size):
            if _pairwise_coprime(combo):
                best = size
                break
    return best


def test_max_antichain_examples():
    size, cert = max_strong_antichain(Union(Mult(2), Mult(3)), 100, mode="exact")
    assert size == 2 and _pairwise_coprime(cert.witness)
    size, cert = max_strong_antichain(parse_expr("P"), 30, mode="exact")
    assert size == 10
    assert list(cert.witness) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    size, _ = max_strong_antichain(Mult(6), 10**4, mode="exact")
    assert size == 1
    # 11 divides no factorial up to the budget 10**4, so its membership is Unknown
    with pytest.raises(IncompleteEnumerationError):
        max_strong_antichain(parse_expr("inter(P,down(factorials))"), 20)


def test_antichain_witness_members_proved():
    for text in ("union(mult(2),mult(3))", "up({4,9})", "level(2)"):
        e = parse_expr(text)
        size, cert = max_strong_antichain(e, 60, mode="greedy")
        assert size == len(cert.witness)
        for x in cert.witness:
            assert member(e, x, BUDGET).proved
        assert _pairwise_coprime(cert.witness)


def test_exact_matches_bruteforce_on_small_instances():
    for text in ("{6,10,15,7,11}", "union(mult(4),mult(9))", "level(2)", "up({6})"):
        e = parse_expr(text)
        limit = 24  # keeps candidate sets at <= 25 elements
        candidates = sorted(oracle_set(render(e), limit))
        assert len(candidates) <= 25
        size, _ = max_strong_antichain(e, limit, mode="exact")
        assert size == _brute_max_antichain(candidates), render(e)


def test_greedy_never_exceeds_exact():
    for text in ("union(mult(2),mult(3))", "level(2)", "P", "up({4,9})"):
        e = parse_expr(text)
        greedy, _ = max_strong_antichain(e, 60, mode="greedy")
        exact, _ = max_strong_antichain(e, 60, mode="exact")
        assert greedy <= exact


def test_max_antichain_rejects_unknown_mode():
    with pytest.raises(PreconditionError):
        max_strong_antichain(Mult(2), 10, mode="fast")


def test_covering_examples():
    cert = covering_witness(Union(Mult(2), Mult(3)), 3, 10, 10**3)
    assert cert is not None and cert.covers == frozenset({2, 3})
    assert covering_witness(parse_expr("P"), 2, 10, 10**3) is None
    cert = covering_witness(
        parse_expr("union(mult(4),union(mult(6),mult(9)))"), 3, 10, 10**4
    )
    assert cert is not None and cert.covers == frozenset({2, 3})
    with pytest.raises(PreconditionError):
        covering_witness(parse_expr("P"), 0, 5, 10)


def test_cover_validates_members():
    e = parse_expr("up({4,9})")
    cert = covering_witness(e, 3, 10, 10**3)
    assert cert is not None
    for m in oracle_set(render(e), 10**3):
        assert any(m % n == 0 for n in cert.covers)


def test_is_n_free_examples():
    assert is_n_free(parse_expr("P"), BUDGET).proved
    v = is_n_free(Union(Mult(2), Mult(3)), BUDGET)
    assert v.refuted and v.certificate.covers == frozenset({2, 3})
    v = is_n_free(parse_expr("prodset(primesIdx(1,2),primesIdx(2,2))"), BUDGET)
    assert v.proved
    # bounded evidence alone never proves N-freeness
    assert is_n_free(parse_expr("comp(mult(2))"), BUDGET).unknown


@pytest.mark.parametrize("budget", [50, 300, BUDGET])
def test_nfree_sample_is_proved_at_the_callers_budget(budget):
    # the least member of up(primesIdx(26,100)) is 101, the 26th prime, so
    # proving 1, 2 or 3 in its down-closure takes a multiple of 101
    for e in load_corpus() + [parse_expr("down(up(primesIdx(26,100)))")]:
        v = is_n_free(e, budget)
        if v.proved:
            for x in v.certificate["sample"]:
                assert member(e, x, budget).proved, (render(e), x)


def test_nfree_duality_on_proved_cases():
    for text in ("P", "primesIdx(1,4)", "pow(P,2)", "up(primesIdx(1,2))"):
        e = parse_expr(text)
        assert is_n_free(e, BUDGET).proved
        for t in range(1, 7):
            cert = find_antichain_of_size(e, t, 10**5)
            assert cert is not None and len(cert.witness) == t
            assert _pairwise_coprime(cert.witness)


def test_extend_antichain_examples():
    assert extend_antichain(parse_expr("P"), {2, 3, 5}, 10) == 7
    assert extend_antichain(Union(Mult(2), Mult(3)), {4, 9}, 10**4) is None
    assert extend_antichain(Level(2), {4, 9}, 30) == 25


def test_extend_antichain_rejects_non_coprime_x():
    with pytest.raises(PreconditionError):
        extend_antichain(parse_expr("P"), {4, 6}, 100)


def test_lcm_extension_examples():
    a = Up(parse_expr("primesIdx(1,2)"))
    b = Up(parse_expr("primesIdx(2,2)"))
    w = lcm_extension(a, b, set(), 10)
    assert (w.a, w.b, w.value) == (2, 3, 6)
    w = lcm_extension(a, b, {6}, 10)
    assert (w.a, w.b, w.value) == (5, 7, 35)
    # every member of up({7}) is a multiple of 7, so none is coprime to 77
    assert lcm_extension(Up(Lit(frozenset({7}))), Up(Lit(frozenset({11}))), [77], 1000) is None
    # A finds 2, but every member of up({7}) is a multiple of 7
    assert lcm_extension(Up(Lit(frozenset({2}))), Up(Lit(frozenset({7}))), [7], 1000) is None
    with pytest.raises(PreconditionError):
        lcm_extension(parse_expr("P"), parse_expr("P"), set(), 100)
    with pytest.raises(PreconditionError) as exc:
        lcm_extension(a, b, [4, 6], 10)
    assert str(exc.value) == "4 and 6 are not coprime"


def test_lcm_extension_postconditions():
    a = Up(parse_expr("primesIdx(1,3)"))
    b = Up(parse_expr("primesIdx(2,3)"))
    x: list[int] = []
    for _ in range(5):
        w = lcm_extension(a, b, x, 10**4)
        assert w is not None
        assert member(a, w.value, max(BUDGET, w.value)).proved
        assert member(b, w.value, max(BUDGET, w.value)).proved
        assert all(math.gcd(w.value, y) == 1 for y in x)
        x.append(w.value)


def test_antichain_certificate_serializes():
    _, cert = max_strong_antichain(parse_expr("P"), 30, mode="exact")
    payload = cert.to_json()
    assert payload["kind"] == "antichain"
    assert payload["witness"] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert payload["host_expr"] == "P"


def test_antichain_with_one_reports_presence():
    size, cert = max_strong_antichain(Lit(frozenset({1, 2, 3})), 10, mode="exact")
    assert size == 3
    assert 1 in cert.witness


# --- the pruned exact solver against the one it replaced ------------------------

# exact antichain has no work bound on these two
UNBOUNDED_ANTICHAIN = ("prodset(P,P)", "up(primesIdx(1,2))")


def _reference_class_bound(supports):
    """The greedy class count, written apart from antichain._classes so that
    the reference solver shares no code with the solver it checks."""
    bound = 0
    holders = defaultdict(list)
    for i, s in enumerate(supports):
        if not s:
            bound += 1  # the element 1, if present
        for p in s:
            holders[p].append(i)
    count = {p: len(ids) for p, ids in holders.items()}
    heap = [(-c, p) for p, c in count.items()]
    heapq.heapify(heap)
    removed = bytearray(len(supports))
    left = len(supports) - bound
    while left:
        c, p = heapq.heappop(heap)
        if -c != count[p]:
            if count[p]:
                heapq.heappush(heap, (-count[p], p))
            continue
        if c == -1:
            return bound + left
        bound += 1
        for i in holders[p]:
            if not removed[i]:
                removed[i] = 1
                left -= 1
                for q in supports[i]:
                    count[q] -= 1
    return bound


def _reference_exact_antichain(candidates, supports, greedy):
    if _reference_class_bound(supports) == len(greedy):
        return greedy
    best = list(greedy)

    def search(rest, chosen):
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        if not rest:
            return
        rest_supports = [supports_by_value[x] for x in rest]
        if len(chosen) + _reference_class_bound(rest_supports) <= len(best):
            return
        x = rest[0]
        sup = supports_by_value[x]
        included = [y for y in rest[1:] if supports_by_value[y].isdisjoint(sup)]
        search(included, chosen + [x])
        search(rest[1:], chosen)

    supports_by_value = dict(zip(candidates, supports))
    search(candidates, [])
    return best


def _solver_order(values):
    """The candidates and supports in max_strong_antichain's order."""
    keyed = sorted((min(arith.prime_support(x), default=1), x) for x in values)
    candidates = [x for _, x in keyed]
    return candidates, [arith.prime_support(x) for x in candidates]


def _witness(solver, values):
    candidates, supports = _solver_order(values)
    greedy = antichain._greedy_antichain(candidates, supports)
    return tuple(sorted(solver(candidates, supports, greedy)))


@given(st.sets(st.integers(1, 2000), max_size=120))
@settings(max_examples=150, deadline=None)
def test_exact_witness_equals_reference(values):
    assert _witness(antichain._exact_antichain, values) == _witness(
        _reference_exact_antichain, values
    )


@given(st.sets(st.integers(1, 2000), max_size=200))
@settings(max_examples=150, deadline=None)
def test_classes_partition_into_prime_sharing_classes(values):
    _, supports = _solver_order(values)
    labels = antichain._classes(supports)
    assert len(labels) == len(supports)
    members = defaultdict(list)
    for label, sup in zip(labels, supports):
        members[label].append(sup)
    assert sorted(members) == list(range(len(members)))
    for sups in members.values():
        assert len(sups) == 1 or frozenset.intersection(*sups)
    assert len(members) == _reference_class_bound(supports)


@given(st.sets(st.integers(1, 2000), max_size=14))
@settings(max_examples=150, deadline=None)
def test_exact_size_equals_bruteforce(values):
    witness = _witness(antichain._exact_antichain, values)
    assert set(witness) <= values and _pairwise_coprime(witness)
    assert len(witness) == _brute_max_antichain(sorted(values))


@given(st.sets(st.integers(1, 2000), max_size=200))
@settings(max_examples=150, deadline=None)
def test_undominated_drops_only_dominated(values):
    candidates, supports = _solver_order(values)
    kept, kept_supports = antichain._undominated(candidates, supports)
    assert kept_supports == [arith.prime_support(x) for x in kept]
    position = {x: i for i, x in enumerate(candidates)}
    for x, sup in zip(candidates, supports):
        dominators = [
            y for y, ysup in zip(kept, kept_supports)
            if y != 1 and position[y] < position[x] and ysup <= sup
        ]
        # a dropped x has an earlier kept dominator, a kept x has none
        assert bool(dominators) == (x not in kept), x
        assert all(min(arith.prime_support(y)) == min(sup) for y in dominators)


@pytest.mark.parametrize("limit", [500, 10**4])
def test_corpus_witnesses_equal_reference(limit, monkeypatch):
    found = {}
    for e in load_corpus():
        if render(e) in UNBOUNDED_ANTICHAIN or not enumerate_upto(e, limit, BUDGET)[1]:
            continue
        found[render(e)] = max_strong_antichain(e, limit, budget=BUDGET)
    monkeypatch.setattr(antichain, "_exact_antichain", _reference_exact_antichain)
    for e in load_corpus():
        if render(e) in found:
            size, cert = max_strong_antichain(e, limit, budget=BUDGET)
            new_size, new_cert = found[render(e)]
            assert (new_size, new_cert.witness) == (size, cert.witness), render(e)
