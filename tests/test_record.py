"""The value classes built on record.Record: Factorization, the filter
presentation, the certificates, the chain records and the harness records."""

import copy
import pickle

import pytest

from divfilters import filters
from divfilters.antichain import AntichainCertificate, CoveringCertificate, LcmWitness
from divfilters.arith import Factorization, factorize
from divfilters.filters import (
    FilterPresentation,
    make_filter,
    parse_filter_spec,
    principal,
    product_member,
    scale_filter,
)
from divfilters.harness import HarnessCase, HarnessParams, HarnessReport
from divfilters.semantics import DEFAULT_BUDGET
from divfilters.setexpr import Inter, Lit, Mult, Scale


def test_factorization_fields_equality_and_repr():
    f = factorize(360)
    assert (f.value, f.factors) == (360, ((2, 3), (3, 2), (5, 1)))
    assert f == Factorization(360, ((2, 3), (3, 2), (5, 1)))
    assert f == Factorization(value=360, factors=((2, 3), (3, 2), (5, 1)))
    assert hash(f) == hash(factorize(360))
    assert f != factorize(180) and f != (360, f.factors)
    assert repr(f) == "Factorization(value=360, factors=((2, 3), (3, 2), (5, 1)))"
    assert pickle.loads(pickle.dumps(f)) == f
    with pytest.raises(ValueError, match="factor product does not equal value"):
        Factorization(12, ((2, 3),))
    with pytest.raises(AttributeError):
        f.value = 1


def test_defaults_and_keywords():
    core = Mult(2)
    f = FilterPresentation(False, core, gens=(core,))
    assert (f.point, f.gens, f.fip_witness) == (None, (core,), None)
    assert f == FilterPresentation(False, core, None, (core,), None)
    assert make_filter([core]) == FilterPresentation(False, core, gens=(core,), fip_witness=2)
    assert principal(6).point == 6 and repr(principal(6)) == "FilterPresentation(principal:6)"
    assert AntichainCertificate((2, 3), core, 10).mode == "exact"
    assert not CoveringCertificate(frozenset({2}), core, 10).structural
    assert repr(LcmWitness(2, 3, 6)) == "LcmWitness(a=2, b=3, value=6)"


def test_bad_arguments_raise_type_error():
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'core'"):
        FilterPresentation(False)
    with pytest.raises(TypeError, match="unexpected keyword argument 'colour'"):
        FilterPresentation(False, Mult(2), colour=1)
    with pytest.raises(TypeError, match="takes 4 positional arguments but 5"):
        LcmWitness(1, 2, 3, 4)
    with pytest.raises(TypeError):
        Mult()


def test_filter_presentation_principal_flag(monkeypatch):
    # the presentation of the product core is built inside product_member
    seen = []
    real = filters.filter_member
    monkeypatch.setattr(filters, "filter_member",
                        lambda f, e, budget: seen.append(f) or real(f, e, budget))
    product_member(make_filter([Mult(2)]), make_filter([Mult(3)]), Mult(6), 50)
    monkeypatch.undo()
    (product_core,) = seen
    built = {
        "principal(n)": (principal(6), True),
        "make_filter": (make_filter([Mult(2), Mult(3)]), False),
        "spec principal": (parse_filter_spec("principal:12"), True),
        "spec gen": (parse_filter_spec("gen:[mult(4)]"), False),
        "scale principal": (scale_filter(principal(3), 5), True),
        "scale generated": (scale_filter(make_filter([Mult(2)]), 3), False),
        "product core": (product_core, False),
        "by hand": (FilterPresentation(True, Lit(frozenset({2})), point=2), True),
    }
    for name, (f, flag) in built.items():
        assert f.principal is flag, name
        assert pickle.loads(pickle.dumps(f)).principal is flag, name
        assert copy.copy(f).principal is flag, name
    with pytest.raises(AttributeError):
        principal(6).principal = False


def test_filter_presentation_values():
    p, g = principal(6), make_filter([Mult(2), Mult(3)])
    assert FilterPresentation._fields == ("principal", "core", "point", "gens", "fip_witness")
    assert p._values() == (True, Lit(frozenset({6})), 6, (), 6)
    assert g._values() == (False, Inter(Mult(2), Mult(3)), None,
                           (Mult(2), Mult(3)), 6)
    assert hash(p) == hash(p._values()) and hash(g) == hash(g._values())
    assert p == principal(6) and p != principal(7) and p != g
    assert g == FilterPresentation(False, Inter(Mult(2), Mult(3)),
                                   gens=(Mult(2), Mult(3)), fip_witness=6)
    assert repr(p) == "FilterPresentation(principal:6)"
    assert repr(g) == "FilterPresentation(gen:[mult(2);mult(3)])"
    scaled = scale_filter(make_filter([Mult(2)]), 3)
    assert scaled._values() == (False, Scale(Mult(2), 3), None,
                                (Scale(Mult(2), 3),), 6)
    for f in (p, g, scaled):
        assert pickle.loads(pickle.dumps(f)) == f


def test_harness_records():
    case = HarnessCase("T3.3", "principal-equivalence", "pass", {"bound": 5})
    assert HarnessCase._fields == ("lemma_id", "case_id", "outcome", "parameters",
                                   "detail", "replay")
    assert (case.detail, case.replay) == ("", None)
    assert case == HarnessCase("T3.3", "principal-equivalence", "pass", {"bound": 5}, "", None)
    assert repr(case) == ("HarnessCase(lemma_id='T3.3', case_id='principal-equivalence', "
                          "outcome='pass', parameters={'bound': 5}, detail='', replay=None)")
    fail = HarnessCase("T3.3", "c", "fail", {}, "why", ["divides", "principal:2"])
    assert fail.to_json() == {"lemma_id": "T3.3", "case_id": "c", "outcome": "fail",
                              "parameters": {}, "detail": "why",
                              "counterexample_replay": ["divides", "principal:2"]}
    report = HarnessReport((case, fail), 3)
    assert report.counts == {"pass": 1, "fail": 1, "skipped": 0} and not report.passed
    assert report.to_json()["seed"] == 3
    params = HarnessParams(bound=30, seed=2)
    assert params._values() == (30, DEFAULT_BUDGET, 2, None, None)
    assert HarnessParams() == HarnessParams(None, DEFAULT_BUDGET, 0, None, None)
    assert params.expressions()[0] == HarnessParams().expressions()[0]
    assert len(params.expressions()) == len(HarnessParams().expressions()) + 10
    with pytest.raises(AttributeError):
        params.seed = 1
