"""The value classes built on record.Record: Factorization, the filter
presentation, the certificates and the chain records."""

import pickle

import pytest

from divfilters.antichain import AntichainCertificate, CoveringCertificate, LcmWitness
from divfilters.arith import Factorization, factorize
from divfilters.filters import FilterPresentation, make_filter, principal
from divfilters.setexpr import Mult


def test_factorization_fields_equality_and_repr():
    f = factorize(360)
    assert (f.value, f.factors) == (360, ((2, 3), (3, 2), (5, 1)))
    assert f == Factorization(360, ((2, 3), (3, 2), (5, 1)))
    assert f == Factorization(value=360, factors=((2, 3), (3, 2), (5, 1)))
    assert hash(f) == hash(factorize(360))
    assert f != factorize(180) and f != (360, f.factors)
    assert repr(f) == "Factorization(value=360, factors=((2, 3), (3, 2), (5, 1)))"
    assert pickle.loads(pickle.dumps(f)) == f
    with pytest.raises(ValueError):
        Factorization(12, ((2, 3),))
    with pytest.raises(AttributeError):
        f.value = 1


def test_defaults_and_keywords():
    core = Mult(2)
    f = FilterPresentation("generated", core, gens=(core,))
    assert (f.point, f.gens, f.fip_witness) == (None, (core,), None)
    assert f == FilterPresentation("generated", core, None, (core,), None)
    assert make_filter([core]) == FilterPresentation("generated", core, gens=(core,), fip_witness=2)
    assert principal(6).point == 6 and repr(principal(6)) == "FilterPresentation(principal:6)"
    assert AntichainCertificate((2, 3), core, 10).mode == "exact"
    assert not CoveringCertificate(frozenset({2}), core, 10).structural
    assert repr(LcmWitness(2, 3, 6)) == "LcmWitness(a=2, b=3, value=6)"


def test_bad_arguments_raise_type_error():
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'core'"):
        FilterPresentation("generated")
    with pytest.raises(TypeError, match="unexpected keyword argument 'colour'"):
        FilterPresentation("generated", Mult(2), colour=1)
    with pytest.raises(TypeError, match="takes 4 positional arguments but 5"):
        LcmWitness(1, 2, 3, 4)
    with pytest.raises(TypeError):
        Mult()
