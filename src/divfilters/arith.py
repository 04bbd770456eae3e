"""Exact integer arithmetic substrate: primes, factorization, Omega-counting,
gcd/lcm/coprimality.

All naturals here are 1-based: 0 is out of domain everywhere. Omega(1) = 0,
so 1 sits alone on level 0 of the prime-factor-count hierarchy.

The smallest-prime-factor sieve is grown on demand under a lock; growing it
is idempotent, so concurrent callers always observe identical results.

The sieve is built by slice assignment, with no Python loop per index. Even
entries start at 2. Each odd prime p <= sqrt(limit), in descending order,
writes p over its odd multiples from p*p on; each prime then writes itself.
An odd composite q with smallest prime factor p has p*p <= q, so p is the
last prime to write spf[q]. Primality is marked the same way in a bytearray.
Composite entries all share the few int objects of the primes <= sqrt(limit).

Primality past the sieve cap goes by trial division: the sieved primes up to
min(sqrt(m), cap) are tried first, and BudgetExceededError is raised only
when none divides m and sqrt(m) passes the cap.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from itertools import compress

from .errors import BudgetExceededError, PreconditionError
from .record import Record

# Values above SIEVE_CAP**2 cannot be factored by trial division over the
# sieved primes and are rejected with an explicit error.
DEFAULT_SIEVE_CAP = 10**6


def _spf_sieve(limit: int) -> tuple[list[int], list[int]]:
    """The smallest-prime-factor table of [0..limit] and the ascending list
    of the primes <= limit, for limit >= 1: spf[0] == 0, spf[1] == 1 and
    spf[p] == p for every prime p. See the module docstring."""
    root = math.isqrt(limit)
    flags = bytearray([1]) * (limit + 1)
    for p in range(3, root + 1, 2):
        if flags[p]:
            flags[p * p :: 2 * p] = bytes((limit - p * p) // (2 * p) + 1)
    odd = list(compress(range(3, limit + 1, 2), flags[3::2]))
    spf = [2, 0] * (limit // 2 + 1)
    del spf[limit + 1 :]
    spf[0], spf[1] = 0, 1
    for p in reversed(odd[: bisect_right(odd, root)]):
        spf[p * p :: 2 * p] = [p] * ((limit - p * p) // (2 * p) + 1)
    for p in odd:
        spf[p] = p
    return spf, [2, *odd] if limit >= 2 else []


class _Sieve:
    """Smallest-prime-factor sieve, grown in powers of two."""

    def __init__(self, cap: int = DEFAULT_SIEVE_CAP):
        self.cap = cap
        self._lock = threading.Lock()
        self._limit = 0
        self._spf: list[int] = []
        self._primes: list[int] = []
        self.ensure(1 << 10)

    def ensure(self, n: int) -> None:
        if n <= self._limit:
            return
        if n > self.cap:
            raise BudgetExceededError(
                f"sieve request {n} exceeds configured cap {self.cap}"
            )
        with self._lock:
            if n <= self._limit:
                return
            limit = self._limit or 1
            while limit < n:
                limit *= 2
            limit = min(limit, self.cap)
            spf, primes = _spf_sieve(limit)
            # publish atomically; readers never see a partial sieve
            self._spf = spf
            self._primes = primes
            self._limit = limit

    @property
    def limit(self) -> int:
        return self._limit

    def primes_upto(self, m: int) -> list[int]:
        self.ensure(max(m, 2))
        return self._primes[: bisect_right(self._primes, m)]

    def is_prime(self, m: int) -> bool:
        if m < 2:
            return False
        if m <= self._limit:
            return self._spf[m] == m
        if m <= self.cap:
            self.ensure(m)
            return self._spf[m] == m
        return self._trial_is_prime(m)

    def _trial_is_prime(self, m: int) -> bool:
        root = math.isqrt(m)
        bound = min(root, self.cap)
        self.ensure(bound)
        for p in self._primes:
            if p > bound:
                break
            if m % p == 0:
                return False
        if root > self.cap:
            raise BudgetExceededError(
                f"primality of {m} needs trial division past cap {self.cap}"
            )
        return True

    def nth_prime(self, i: int) -> int:
        if i < 1:
            raise PreconditionError("prime index must be >= 1")
        while len(self._primes) < i:
            if self._limit >= self.cap:
                raise BudgetExceededError(
                    f"nth_prime({i}) exceeds sieve cap {self.cap}"
                )
            self.ensure(min(self._limit * 2, self.cap))
        return self._primes[i - 1]

    def prime_index(self, p: int) -> int:
        """1-based index of the prime p; raises if p is not prime."""
        if not self.is_prime(p):
            raise PreconditionError(f"{p} is not prime")
        if p > self.cap:
            raise BudgetExceededError(
                f"prime_index({p}) exceeds sieve cap {self.cap}"
            )
        self.ensure(p)
        return bisect_right(self._primes, p)


_SIEVE = _Sieve()


class Factorization(Record):
    """Prime factorization of a natural number >= 1.

    factors is an ascending tuple of (prime, exponent) pairs with distinct
    primes; the empty tuple encodes value == 1.
    """

    __slots__ = ("value", "factors")

    def _check(self):
        prod = 1
        for p, e in self.factors:
            prod *= p**e
        if prod != self.value:
            raise ValueError("factor product does not equal value")


def _check_natural(m: int, name: str = "m") -> None:
    if not isinstance(m, int) or m < 1:
        raise PreconditionError(f"{name} must be a natural number >= 1, got {m!r}")


def factorize(m: int) -> Factorization:
    """Factor m >= 1 into (prime, exponent) pairs, ascending by prime."""
    _check_natural(m)
    if m == 1:
        return Factorization(1, ())
    pairs: list[tuple[int, int]] = []
    n = m
    if n <= _SIEVE.cap:
        _SIEVE.ensure(n)
        spf = _SIEVE._spf
        while n > 1:
            p = spf[n]
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            pairs.append((p, e))
        return Factorization(m, tuple(pairs))
    # trial division past the sieve cap; the cofactor left after stripping
    # all primes <= cap is prime whenever its square root fits under cap
    root = min(math.isqrt(n), _SIEVE.cap)
    for p in _SIEVE.primes_upto(root):
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            pairs.append((p, e))
    if n > 1:
        if math.isqrt(n) > _SIEVE.cap:
            raise BudgetExceededError(
                f"factorize({m}) needs trial division past cap {_SIEVE.cap}"
            )
        pairs.append((n, 1))
    pairs.sort()
    return Factorization(m, tuple(pairs))


def omega(m: int) -> int:
    """Number of prime factors of m counted with multiplicity; omega(1) = 0.
    Walks the sieve as prime_support does."""
    _check_natural(m)
    spf = _SIEVE._spf
    if m >= len(spf):
        return sum(e for _, e in factorize(m).factors)
    count = 0
    while m > 1:
        m //= spf[m]
        count += 1
    return count


def omega_table(n: int) -> bytearray:
    """Omega(m) for every 1 <= m <= n, read off the smallest-prime-factor
    sieve; entry 0 is unused. Omega stays below 2**8 up to the sieve cap."""
    _SIEVE.ensure(max(n, 2))
    spf = _SIEVE._spf
    table = bytearray(n + 1)
    for m in range(2, n + 1):
        table[m] = table[m // spf[m]] + 1
    return table


def prime_support(m: int) -> frozenset[int]:
    """The set of distinct primes dividing m."""
    _check_natural(m)
    spf = _SIEVE._spf
    if m >= len(spf):
        return frozenset(p for p, _ in factorize(m).factors)
    primes = set()
    while m > 1:
        p = spf[m]
        primes.add(p)
        m //= p
    return frozenset(primes)


def coprime_lcm(a: int, b: int) -> tuple[int, int, bool]:
    """Return (gcd, lcm, coprime) for a, b >= 1."""
    _check_natural(a, "a")
    _check_natural(b, "b")
    g = math.gcd(a, b)
    return g, a * b // g, g == 1


def is_prime(m: int) -> bool:
    if m < 1:
        raise PreconditionError(f"m must be >= 1, got {m!r}")
    return _SIEVE.is_prime(m)


def primes_upto(m: int) -> list[int]:
    """All primes <= m, ascending."""
    _check_natural(m)
    if m > _SIEVE.cap:
        raise BudgetExceededError(f"primes_upto({m}) exceeds cap {_SIEVE.cap}")
    return _SIEVE.primes_upto(m)


def nth_prime(i: int) -> int:
    """The i-th prime, 1-based: nth_prime(1) == 2."""
    return _SIEVE.nth_prime(i)


def prime_index(p: int) -> int:
    """1-based index of the prime p."""
    return _SIEVE.prime_index(p)


def divisors(m: int) -> list[int]:
    """All divisors of m, ascending."""
    fac = factorize(m)
    divs = [1]
    for p, e in fac.factors:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    divs.sort()
    return divs
