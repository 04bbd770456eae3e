"""Brute-force model of the expression language, independent of divfilters.

It parses expression text with its own parser and evaluates every atom and
combinator from its defining predicate, with its own sieve and its own
factor counting. It imports nothing from the library, so a fault in the
library's parser, evaluator or arithmetic cannot hide in both sides of a
check.

`oracle_set(text, bound)` is the set of members in [1, bound]. For `down`
the model scans multiples up to a cap (DOWN_CAP_FACTOR * bound, at least
2 * 10**4), so there it is a lower approximation, as the library's answer is.
"""

from __future__ import annotations

import math

DOWN_CAP_FACTOR = 10


class OracleParseError(ValueError):
    pass


def parse(text: str):
    """Expression text -> nested tuples ("head", args...)."""
    src = "".join(text.split())
    node, pos = _parse_at(src, 0)
    if pos != len(src):
        raise OracleParseError(f"trailing input at {pos} in {text!r}")
    return node


def _nat_at(src: str, pos: int) -> tuple[int, int]:
    end = pos
    while end < len(src) and src[end].isdigit():
        end += 1
    if end == pos:
        raise OracleParseError(f"expected a natural at {pos}")
    return int(src[pos:end]), end


def _parse_at(src: str, pos: int):
    if src.startswith("{", pos):
        elems = []
        pos += 1
        while True:
            value, pos = _nat_at(src, pos)
            elems.append(value)
            if src.startswith(",", pos):
                pos += 1
                continue
            if src.startswith("}", pos):
                return ("lit", frozenset(elems)), pos + 1
            raise OracleParseError(f"bad literal at {pos}")
    end = pos
    while end < len(src) and src[end].isalpha():
        end += 1
    head = src[pos:end]
    if head in ("N", "P", "empty", "factorials"):
        return (head,), end
    if not src.startswith("(", end):
        raise OracleParseError(f"expected '(' after {head!r}")
    pos = end + 1
    args = []
    while True:
        if src[pos].isdigit():
            value, pos = _nat_at(src, pos)
        else:
            value, pos = _parse_at(src, pos)
        args.append(value)
        if src.startswith(",", pos):
            pos += 1
            continue
        if src.startswith(")", pos):
            return (head, *args), pos + 1
        raise OracleParseError(f"expected ',' or ')' at {pos}")


class _Tables:
    """Primality and prime-factor counts up to a limit, by plain sieving."""

    def __init__(self):
        self.limit = 1
        self.is_prime = bytearray(2)
        self.primes: list[int] = []
        self.big_omega = [0, 0]

    def grow(self, limit: int) -> None:
        if limit <= self.limit:
            return
        is_prime = bytearray([1]) * (limit + 1)
        is_prime[0] = is_prime[1] = 0
        for p in range(2, math.isqrt(limit) + 1):
            if is_prime[p]:
                is_prime[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
        primes = [n for n in range(2, limit + 1) if is_prime[n]]
        big_omega = [0] * (limit + 1)
        for p in primes:
            power = p
            while power <= limit:
                for n in range(power, limit + 1, power):
                    big_omega[n] += 1
                power *= p
        self.limit, self.is_prime = limit, is_prime
        self.primes, self.big_omega = primes, big_omega


_TABLES = _Tables()


def _primes_with_index(bound: int) -> list[tuple[int, int]]:
    _TABLES.grow(max(bound, 2))
    return [(i, p) for i, p in enumerate(_TABLES.primes, start=1) if p <= bound]


def _iroot(m: int, n: int) -> int:
    """Largest x with x**n <= m, by integer bisection."""
    lo, hi = 0, 1
    while hi**n <= m:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**n <= m:
            lo = mid
        else:
            hi = mid
    return lo


def _products(arg_sets: list[list[int]], bound: int) -> set[int]:
    """x1*...*xk <= bound with xi from arg_sets[i], pairwise distinct."""
    out: set[int] = set()

    def rec(i: int, product: int, used: tuple[int, ...]) -> None:
        if i == len(arg_sets):
            out.add(product)
            return
        for x in arg_sets[i]:
            if product * x > bound:
                break
            if x not in used:
                rec(i + 1, product * x, used + (x,))

    rec(0, 1, ())
    return out


def _eval(node, bound: int) -> set[int]:
    head = node[0]
    universe = range(1, bound + 1)
    if head == "N":
        return set(universe)
    if head == "empty":
        return set()
    if head == "P":
        return {p for _, p in _primes_with_index(bound)}
    if head == "factorials":
        out, k, value = set(), 1, 1
        while value <= bound:
            out.add(value)
            k += 1
            value *= k
        return out
    if head == "lit":
        return {m for m in node[1] if m <= bound}
    if head == "mult":
        return set(range(node[1], bound + 1, node[1]))
    if head == "level":
        _TABLES.grow(max(bound, 2))
        omega = _TABLES.big_omega
        return {m for m in universe if omega[m] == node[1]}
    if head == "primesIdx":
        r, m = node[1], node[2]
        return {p for i, p in _primes_with_index(bound) if (i - r) % m == 0}
    if head == "primesGeom":
        c, q = node[1], node[2]
        wanted, idx = set(), c
        while idx <= bound:
            wanted.add(idx)
            idx *= q
        return {p for i, p in _primes_with_index(bound) if i in wanted}
    if head == "pow":
        n = node[2]
        base = _eval(node[1], _iroot(bound, n))
        return {x**n for x in base}
    if head == "prodset":
        arg_sets = [sorted(_eval(a, bound)) for a in node[1:]]
        return _products(arg_sets, bound)
    if head == "comp":
        return set(universe) - _eval(node[1], bound)
    if head == "union":
        return _eval(node[1], bound) | _eval(node[2], bound)
    if head == "inter":
        return _eval(node[1], bound) & _eval(node[2], bound)
    if head == "up":
        out: set[int] = set()
        for a in _eval(node[1], bound):
            out.update(range(a, bound + 1, a))
        return out
    if head == "down":
        cap = max(bound * DOWN_CAP_FACTOR, 2 * 10**4)
        base = _eval(node[1], cap)
        return {m for m in universe if any(k % m == 0 for k in base)}
    if head == "quot":
        n = node[2]
        base = _eval(node[1], bound * n)
        return {m for m in universe if m * n in base}
    if head == "scale":
        n = node[2]
        return {n * x for x in _eval(node[1], bound // n)}
    raise OracleParseError(f"no rule for {head!r}")


def oracle_set(text: str, bound: int) -> set[int]:
    """All members of the expression `text` in [1, bound]."""
    return _eval(parse(text), bound)


def is_prime(n: int) -> bool:
    """Trial division, for values past the sieve tables."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factor(n: int) -> dict[int, int]:
    """Prime factorization by trial division."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def icbrt(m: int) -> int:
    return _iroot(m, 3)
