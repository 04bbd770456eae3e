import pytest

from divfilters import arith
from divfilters.errors import PreconditionError


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
