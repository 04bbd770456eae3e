import math

import pytest

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


def _trial_factors(m):
    """The (prime, exponent) pairs of m by trial division, with no sieve."""
    pairs, d = [], 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            pairs.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        pairs.append((m, 1))
    return tuple(pairs)


# ascending, so that each is past the sieve that the ones before it grew:
# 1025 just past the initial 1,024, 2**17 + 1 past 2,048, 999983 past 2**18,
# the rest past the cap
PAST_THE_SIEVE = [1025, 2**17 + 1, 999983, 10**6 + 3, 2**3 * 3 * 1000003,
                  999983 * 999979, 10**12 + 39]


def test_sieve_walks_equal_trial_division(monkeypatch):
    reference = {m: _trial_factors(m) for m in [*range(1, 10**5 + 1), *PAST_THE_SIEVE]}
    expected = {
        arith.omega: lambda m: sum(e for _, e in reference[m]),
        arith.prime_support: lambda m: frozenset(p for p, _ in reference[m]),
        arith.factorize: lambda m: arith.Factorization(m, reference[m]),
    }
    for fn, want in expected.items():
        monkeypatch.setattr(arith, "_SIEVE", _Sieve())
        for m in PAST_THE_SIEVE:
            assert arith._SIEVE.limit < m
            assert fn(m) == want(m), m
        assert arith._SIEVE.limit == arith.DEFAULT_SIEVE_CAP
        for m in range(1, 10**5 + 1):
            assert fn(m) == want(m), m


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(1, 31):
        assert arith.is_prime(n) == (n in primes)


def test_primes_upto():
    assert arith.primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert arith.primes_upto(1) == []


def test_nth_prime_one_based():
    assert [arith.nth_prime(i) for i in range(1, 7)] == [2, 3, 5, 7, 11, 13]
    assert arith.prime_index(13) == 6


def test_coprime_lcm():
    g, l, coprime = arith.coprime_lcm(4, 9)
    assert (g, l, coprime) == (1, 36, True)
    g, l, coprime = arith.coprime_lcm(6, 10)
    assert (g, l, coprime) == (2, 30, False)


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
    grown, direct = _Sieve(10**6), _Sieve(10**6)
    for n in (5000, 70000, 300000, 10**6):
        grown.ensure(n)
        assert grown.limit >= n
        assert grown._spf == _spf_sieve(grown.limit)[0]
    direct.ensure(10**6)
    assert grown.limit == direct.limit == 10**6
    assert grown._spf == direct._spf
    assert grown._primes == direct._primes


def test_trial_primality_past_the_cap():
    sieve = _Sieve(10**6)
    # 3·7·11·23·29·31·67·83·89: its square root passes the cap, a small prime divides it
    assert sieve._trial_is_prime(2363972441523) is False
    with pytest.raises(BudgetExceededError):
        sieve._trial_is_prime(1000003 * 1000033)
    assert sieve._trial_is_prime(1000003) is True
    assert sieve._trial_is_prime(999983 * 999979) is False
    largest = 10**12 - 11  # the largest prime below cap**2
    assert sieve._trial_is_prime(largest) is True
