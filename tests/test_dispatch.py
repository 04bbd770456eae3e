"""The evaluator's dispatch table, the grammar table and the structural-facts
pass over every node class, and the harness's L2.1b refutation check
against the code it replaced, kept here as the reference."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divfilters import arith
from divfilters.harness import _brute_refutation, _sample_prime_sets
from divfilters.semantics import (
    _HANDLERS,
    Facts,
    enumerate_upto,
    evaluate_range,
    facts,
    member,
)
from divfilters.setexpr import (
    NODE_CLASSES,
    PrimesIdx,
    SetExpr,
    Up,
    children,
    parse_expr,
    render,
    usage,
)

BUDGET = 10**4


def _node_classes() -> set[type]:
    found, stack = set(), [SetExpr]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in found:
                found.add(sub)
                stack.append(sub)
    return found


def test_every_node_class_has_a_handler():
    assert set(_HANDLERS) == _node_classes()
    assert len(_HANDLERS) == 18


def test_every_node_class_has_a_grammar_entry():
    assert set(NODE_CLASSES) == _node_classes()
    assert len({cls.head for cls in NODE_CLASSES}) == len(NODE_CLASSES)
    for cls in NODE_CLASSES:
        assert len(cls.sig.rstrip("+")) == len(cls.__match_args__), cls
        assert usage(cls).startswith(cls.head), cls


def test_node_classes_are_final():
    # lookup by type(e) finds exactly the class an isinstance chain would
    for cls in _node_classes():
        assert cls.__subclasses__() == [], cls


def test_unknown_node_raises_type_error():
    class Stranger:
        pass

    with pytest.raises(TypeError, match="unknown node"):
        member(Stranger(), 6)
    with pytest.raises(TypeError, match="unknown node"):
        member(Up(Stranger()), 6)
    with pytest.raises(TypeError, match="unknown node"):
        evaluate_range(Stranger(), 10)
    with pytest.raises(TypeError, match="unknown node"):
        facts(Stranger())
    with pytest.raises(TypeError, match="unknown node"):
        facts(Up(Stranger()))
    with pytest.raises(TypeError, match="unknown node"):
        render(Up(Stranger()))
    with pytest.raises(TypeError, match="unknown node"):
        children(Stranger())


def test_facts_has_a_rule_for_every_node_class():
    # one expression of each class; a new class must be added here
    texts = ["N", "empty", "P", "factorials", "{2,3}", "mult(6)", "level(2)",
             "primesIdx(1,2)", "primesGeom(1,2)", "up({4})", "down({12})",
             "quot(mult(4),2)", "scale(P,3)", "comp(P)", "union(P,{4})",
             "inter(P,mult(3))", "pow(P,2)", "prodset(P,P)"]
    samples = {type(e): e for e in map(parse_expr, texts)}
    assert set(samples) == _node_classes()
    for e in samples.values():
        assert isinstance(facts(e), Facts)
        states = evaluate_range(e, 30, 100)
        for m in range(1, 31):
            v = member(e, m, 100)
            assert (states[m] == 1, states[m] == 2) == (v.proved, v.unknown), (render(e), m)


def _reference_refutation(f_members, g_members, b_set, bound):
    """The scan _brute_refutation replaced: test each prime of B in turn."""
    primes = sorted(b_set)
    for n in f_members[:40]:
        cap = bound // n
        for b in g_members:
            if b > cap:
                break
            x = n * b
            if all(x % p for p in primes):
                return (n, b)
    return None


@pytest.mark.parametrize("seed", [0, 7])
def test_brute_refutation_on_seeded_l21b_inputs(seed):
    # the cores and prime sets _suite_l21b draws at this seed, at its default
    # bound; the first four of its twenty filter pairs keep the test short
    bound = 10**5
    rng = random.Random(seed)
    cores = [(Up(PrimesIdx(rng.randint(1, 3), 3)), Up(PrimesIdx(rng.randint(1, 4), 4)))
             for _ in range(20)]
    prime_sets = _sample_prime_sets(rng, 20)
    for f_core, g_core in cores[:4]:
        f_members = enumerate_upto(f_core, 400, BUDGET)[0]
        g_members = enumerate_upto(g_core, bound // 2, bound // 2)[0]
        for b_set in prime_sets:
            assert _brute_refutation(f_members, g_members, b_set, bound) == \
                _reference_refutation(f_members, g_members, b_set, bound)


_sorted_lists = st.lists(st.integers(1, 3000), max_size=60).map(sorted)


@given(
    st.frozensets(st.sampled_from(arith.primes_upto(50)), min_size=1, max_size=6),
    _sorted_lists,
    _sorted_lists,
    st.integers(1, 10**5),
)
@settings(max_examples=200, deadline=None)
def test_brute_refutation_on_random_prime_sets(b_set, f_members, g_members, bound):
    assert _brute_refutation(f_members, g_members, b_set, bound) == \
        _reference_refutation(f_members, g_members, b_set, bound)
