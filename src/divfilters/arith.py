"""Exact integer arithmetic substrate: primes, factorization, Omega-counting,
gcd/lcm/coprimality.

All naturals here are 1-based: 0 is out of domain everywhere. Omega(1) = 0,
so 1 sits alone on level 0 of the prime-factor-count hierarchy.

The sieve is built by slice assignment, with no Python loop per index. Even
entries start at 2. Each odd prime p <= sqrt(limit), in descending order,
writes p over its odd multiples from p*p on; each prime then writes itself.
An odd composite q with smallest prime factor p has p*p <= q, so p is the
last prime to write spf[q]. Primality is marked the same way in a bytearray.
Composite entries all share the few int objects of the primes <= sqrt(limit).

The module functions are the only implementation of each query. They read
_SIEVE, which holds the table (spf and primes up to limit) and does three
jobs: ensure grows the table on demand under a lock, in powers of two up to
DEFAULT_SIEVE_CAP (growing is idempotent, so concurrent callers observe
identical results); _grew_to counts point queries past the table; and
_trial_pairs trial-divides them.

Point queries (is_prime, and through _pairs factorize, prime_support, omega
and divisors) read the table when m is inside it. Past the table, below the
cap and past it alike, they take one trial path: division by the sieved
primes, ascending, until p * p passes the cofactor. If the sieved primes run
out first, the table grows once, to min(sqrt(cofactor), cap), and
BudgetExceededError is raised only when no prime up to the cap divides a
cofactor whose square root passes the cap, that is past cap**2.

A point query in (table, cap] is also counted, unlocked, and once the count
since the last growth times 512 (_ENTRIES_PER_MISS: one trial-divided query
costs about as much as 512 table entries) reaches m, the table grows to m. A
pointwise walk past the table so pays at most about twice what growing up
front would, while a few scattered queries never build the table. Bulk
callers (primes_upto, omega_table, nth_prime, prime_index) grow the table up
front.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from itertools import compress, islice, starmap

from .errors import BudgetExceededError, PreconditionError
from .record import Record

# The table never grows past this. Values above DEFAULT_SIEVE_CAP**2 cannot be
# factored by trial division over the sieved primes and are rejected with an
# explicit error.
DEFAULT_SIEVE_CAP = 10**6

# A trial-divided point query past the table costs about as much as building
# this many table entries. On a 2-vCPU Intel Xeon under CPython 3.11, building
# the table costs 25-38 ms per 10**6 entries, and one trial-divided
# prime_support near 10**6 costs about 14 us at a prime, its dearest case, and
# 5.5 us on average over consecutive m. So m / 512 misses cost at most about
# one build of the table to m.
_ENTRIES_PER_MISS = 512


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
    """The smallest-prime-factor table spf and the ascending primes of
    [0..limit]. See the module docstring."""

    def __init__(self):
        self._lock = threading.Lock()
        self.limit = 0
        self._misses = 0  # point queries in (limit, cap] since the last growth
        self.spf: list[int] = []
        self.primes: list[int] = []
        self.ensure(1 << 10)

    def ensure(self, n: int) -> None:
        if n <= self.limit:
            return
        if n > DEFAULT_SIEVE_CAP:
            raise BudgetExceededError(
                f"sieve request {n} exceeds configured cap {DEFAULT_SIEVE_CAP}")
        with self._lock:
            if n <= self.limit:
                return
            limit = self.limit or 1
            while limit < n:
                limit *= 2
            limit = min(limit, DEFAULT_SIEVE_CAP)
            spf, primes = _spf_sieve(limit)
            # publish the limit last; readers never see a partial sieve
            self.spf = spf
            self.primes = primes
            self.limit = limit
            self._misses = 0

    def _grew_to(self, m: int) -> bool:
        """Count m, a point query past the table, and grow the table to m
        once the misses counted since the last growth would have paid for
        building it. Return whether the table now holds m."""
        if m > DEFAULT_SIEVE_CAP:
            return False
        # unlocked: a lost or doubled count moves only when the table grows,
        # never what a query answers
        self._misses += 1
        if self._misses * _ENTRIES_PER_MISS < m:
            return False
        self.ensure(m)
        return True

    def _trial_pairs(self, n: int, what: str) -> Iterator[tuple[int, int]]:
        """The (prime, exponent) pairs of n >= 1, ascending, by trial
        division with the sieved primes until p * p passes the cofactor.
        When they run out first, the table grows once, to the cofactor's
        square root or the cap; past the cap, BudgetExceededError says
        that `what` needs trial division past it."""
        primes, tried = self.primes, 0
        while True:
            for p in islice(primes, tried, None):
                if p * p > n:
                    break
                if n % p == 0:
                    e = 0
                    while n % p == 0:
                        n //= p
                        e += 1
                    yield p, e
            else:
                root = math.isqrt(n)
                self.ensure(min(root, DEFAULT_SIEVE_CAP))
                if primes is not self.primes:
                    primes, tried = self.primes, len(primes)
                    continue
                # no prime up to the table's limit, which reaches root or
                # the cap, divides n
                if root > DEFAULT_SIEVE_CAP:
                    raise BudgetExceededError(
                        f"{what} needs trial division past cap {DEFAULT_SIEVE_CAP}")
            if n > 1:
                yield n, 1
            return


_SIEVE = _Sieve()


class Factorization(Record):
    """Prime factorization of a natural number >= 1.

    factors is an ascending tuple of (prime, exponent) pairs with distinct
    primes; the empty tuple encodes value == 1.
    """

    __slots__ = ("value", "factors")
    _guards = (("math.prod(starmap(pow, factors)) == value",
                "factor product does not equal value"),)
    _error = ValueError


def _check_natural(m: int) -> None:
    if not isinstance(m, int) or m < 1:
        raise PreconditionError(f"m must be a natural number >= 1, got {m!r}")


def _pairs(m: int) -> Iterable[tuple[int, int]]:
    """The (prime, exponent) pairs of m >= 1, ascending: walked off the
    table when it holds m, else by the trial path."""
    sieve = _SIEVE
    if m > sieve.limit and not sieve._grew_to(m):
        return sieve._trial_pairs(m, f"factorize({m})")
    spf = sieve.spf
    pairs = []
    while m > 1:
        p = spf[m]
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        pairs.append((p, e))
    return pairs


def factorize(m: int) -> Factorization:
    """Factor m >= 1 into (prime, exponent) pairs, ascending by prime."""
    _check_natural(m)
    return Factorization(m, tuple(_pairs(m)))


def omega(m: int) -> int:
    """Number of prime factors of m counted with multiplicity; omega(1) = 0.
    Walks the table as prime_support does."""
    _check_natural(m)
    spf = _SIEVE.spf
    if m >= len(spf):
        return sum(e for _, e in _pairs(m))
    count = 0
    while m > 1:
        m //= spf[m]
        count += 1
    return count


def omega_table(n: int) -> bytearray:
    """Omega(m) for every 1 <= m <= n, read off the smallest-prime-factor
    table; entry 0 is unused. Omega stays below 2**8 up to the sieve cap."""
    _SIEVE.ensure(n)
    spf = _SIEVE.spf
    table = bytearray(n + 1)
    for m in range(2, n + 1):
        table[m] = table[m // spf[m]] + 1
    return table


def prime_support(m: int) -> frozenset[int]:
    """The set of distinct primes dividing m."""
    _check_natural(m)
    spf = _SIEVE.spf
    if m >= len(spf):
        return frozenset(p for p, _ in _pairs(m))
    primes = set()
    while m > 1:
        p = spf[m]
        primes.add(p)
        m //= p
    return frozenset(primes)


def is_prime(m: int) -> bool:
    if m < 1:
        raise PreconditionError(f"m must be >= 1, got {m!r}")
    sieve = _SIEVE
    if m <= sieve.limit or sieve._grew_to(m):
        return m > 1 and sieve.spf[m] == m
    p, _ = next(sieve._trial_pairs(m, f"primality of {m}"))
    return p == m


def primes_upto(m: int) -> list[int]:
    """All primes <= m, ascending."""
    _check_natural(m)
    if m > DEFAULT_SIEVE_CAP:
        raise BudgetExceededError(f"primes_upto({m}) exceeds cap {DEFAULT_SIEVE_CAP}")
    _SIEVE.ensure(m)
    primes = _SIEVE.primes
    return primes[: bisect_right(primes, m)]


def nth_prime(i: int) -> int:
    """The i-th prime, 1-based: nth_prime(1) == 2."""
    if i < 1:
        raise PreconditionError("prime index must be >= 1")
    sieve = _SIEVE
    while len(sieve.primes) < i:
        if sieve.limit >= DEFAULT_SIEVE_CAP:
            raise BudgetExceededError(f"nth_prime({i}) exceeds sieve cap {DEFAULT_SIEVE_CAP}")
        sieve.ensure(sieve.limit + 1)
    return sieve.primes[i - 1]


def prime_index(p: int) -> int:
    """1-based index of the prime p; raises if p is not prime."""
    if p <= DEFAULT_SIEVE_CAP:
        _SIEVE.ensure(p)
    if p < 2 or not is_prime(p):  # is_prime rejects p < 1 with its own text
        raise PreconditionError(f"{p} is not prime")
    if p > DEFAULT_SIEVE_CAP:
        raise BudgetExceededError(f"prime_index({p}) exceeds sieve cap {DEFAULT_SIEVE_CAP}")
    return bisect_right(_SIEVE.primes, p)


def divisors(m: int) -> list[int]:
    """All divisors of m, ascending."""
    _check_natural(m)
    divs = [1]
    for p, e in _pairs(m):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    divs.sort()
    return divs
