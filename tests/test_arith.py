import math

import pytest

from oracle import factor

from divfilters import arith
from divfilters.arith import _Sieve, _spf_sieve
from divfilters.errors import BudgetExceededError, PreconditionError


def test_factorize_small_values():
    assert arith.factorize(1).factors == ()
    assert arith.factorize(2).factors == ((2, 1),)
    assert arith.factorize(360).factors == ((2, 3), (3, 2), (5, 1))
    assert arith.factorize(9973).factors == ((9973, 1),)


def test_factorization_value_roundtrip():
    for n in (1, 2, 97, 360, 1024, 9699690):
        f = arith.factorize(n)
        product = 1
        for p, k in f.factors:
            product *= p**k
        assert product == n == f.value


def test_omega_and_prime_support():
    assert arith.omega(1) == 0
    assert arith.omega(12) == 3  # counted with multiplicity: 2, 2, 3
    assert arith.prime_support(60) == frozenset({2, 3, 5})


def _support_by_factorize(m):
    return frozenset(p for p, _ in arith.factorize(m).factors)


def test_prime_support_equals_factorize():
    # one value past the sieve cap takes the trial-division path of factorize
    past_cap = 2**3 * 3 * 1000003
    assert arith.DEFAULT_SIEVE_CAP < past_cap
    for m in [*range(1, 10**5 + 1), 10**6 + 3, past_cap]:
        assert arith.prime_support(m) == _support_by_factorize(m), m
    with pytest.raises(PreconditionError):
        arith.prime_support(0)


# ascending, each past the initial 1,024-entry table: trial division by the
# primes below 1,024 decides all but the last two, which need the primes up to
# the cap and so grow the table to it
PAST_THE_SIEVE = [1025, 2**17 + 1, 999983, 10**6 + 3, 2**3 * 3 * 1000003,
                  999983 * 999979, 10**12 + 39]
# trial division stops at p * p > cofactor, so the primes below 1,024 decide
# these too: 2**40 * 1000003 leaves the prime cofactor 1000003
DECIDED_BY_THE_FIRST_PRIMES = [999983, 987654, 2**40 * 1000003]


def test_sieve_walks_equal_trial_division(monkeypatch):
    # a pointwise walk from here pays for growing the table to m within
    # ceil(m / _ENTRIES_PER_MISS) misses
    first = 950000
    walk = range(first, first + math.ceil(10**6 / arith._ENTRIES_PER_MISS))
    reference = {m: tuple(factor(m).items())
                 for m in [*range(1, 10**5 + 1), *walk,
                           *PAST_THE_SIEVE, *DECIDED_BY_THE_FIRST_PRIMES]}
    expected = {
        arith.is_prime: lambda m: reference[m] == ((m, 1),),
        arith.omega: lambda m: sum(e for _, e in reference[m]),
        arith.prime_support: lambda m: frozenset(p for p, _ in reference[m]),
        arith.factorize: lambda m: arith.Factorization(m, reference[m]),
    }
    for fn, want in expected.items():
        monkeypatch.setattr(arith, "_SIEVE", _Sieve())
        for m in DECIDED_BY_THE_FIRST_PRIMES:
            assert fn(m) == want(m), m
        assert arith._SIEVE.limit == 1024
        for m in PAST_THE_SIEVE:
            assert arith._SIEVE.limit < m
            assert fn(m) == want(m), m
        assert arith._SIEVE.limit == arith.DEFAULT_SIEVE_CAP
        for m in range(1, 10**5 + 1):
            assert fn(m) == want(m), m
        monkeypatch.setattr(arith, "_SIEVE", _Sieve())
        for m in range(1025, 10**5 + 1):
            assert fn(m) == want(m), m
        assert arith._SIEVE.limit >= 10**5
        for misses, m in enumerate(walk, 1):
            assert fn(m) == want(m), m
            if arith._SIEVE.limit >= m:
                break
        assert arith._SIEVE.limit >= m
        assert misses <= math.ceil(m / arith._ENTRIES_PER_MISS), (misses, m)


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(1, 31):
        assert arith.is_prime(n) == (n in primes)


def test_primes_upto(monkeypatch):
    assert arith.primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert arith.primes_upto(1) == []
    monkeypatch.setattr(arith, "_SIEVE", _Sieve())
    with pytest.raises(BudgetExceededError):
        arith.primes_upto(10**6 + 1)


def test_nth_prime_one_based(monkeypatch):
    assert [arith.nth_prime(i) for i in range(1, 7)] == [2, 3, 5, 7, 11, 13]
    assert arith.prime_index(13) == 6
    # nth_prime doubles a fresh table until it holds the i-th prime
    monkeypatch.setattr(arith, "_SIEVE", _Sieve())
    assert arith.nth_prime(10**4) == 104729
    assert arith._SIEVE.limit == 2**17
    monkeypatch.setattr(arith, "_SIEVE", _Sieve())
    assert arith.nth_prime(78498) == 999983  # the last prime below the cap
    with pytest.raises(BudgetExceededError):
        arith.nth_prime(78499)
    monkeypatch.setattr(arith, "_SIEVE", _Sieve())
    with pytest.raises(PreconditionError):
        arith.prime_index(999982)
    with pytest.raises(BudgetExceededError):
        arith.prime_index(1000003)


def test_divisors():
    assert arith.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert arith.divisors(1) == [1]
    assert arith.divisors(13) == [1, 13]


def test_factorize_rejects_nonpositive():
    with pytest.raises((PreconditionError, ValueError)):
        arith.factorize(0)


def _reference_sieve(limit):
    """The per-index loop the sieve was first built with."""
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for q in range(p * p, limit + 1, p):
                if spf[q] == q:
                    spf[q] = p
    primes = [p for p in range(2, limit + 1) if spf[p] == p]
    return spf, primes


def test_spf_sieve_equals_reference():
    for limit in [*range(1, 2101), 2**16, 2**16 + 1, 10**5, 10**6]:
        assert _spf_sieve(limit) == _reference_sieve(limit), limit


def test_grown_sieve_equals_sieve_built_at_once():
    grown, direct = _Sieve(), _Sieve()
    for n in (5000, 70000, 300000, 10**6):
        grown.ensure(n)
        assert grown.limit >= n
        assert grown.spf == _spf_sieve(grown.limit)[0]
    direct.ensure(10**6)
    assert grown.limit == direct.limit == 10**6
    assert grown.spf == direct.spf
    assert grown.primes == direct.primes


def test_trial_primality_past_the_cap(monkeypatch):
    monkeypatch.setattr(arith, "_SIEVE", _Sieve())
    # 3·7·11·23·29·31·67·83·89: its square root passes the cap, a small prime divides it
    assert arith.is_prime(2363972441523) is False
    with pytest.raises(BudgetExceededError):
        arith.is_prime(1000003 * 1000033)
    assert arith.is_prime(1000003) is True
    assert arith.is_prime(999983 * 999979) is False
    largest = 10**12 - 11  # the largest prime below cap**2
    assert arith.is_prime(largest) is True
