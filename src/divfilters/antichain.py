"""Strong antichains (pairwise-coprime subsets) and their covering dual.

A finite set covers E when every member of E is divisible by one of finitely
many n >= 2; a strong antichain in E bounds how small such a cover can be.
The exact maximum-antichain solver is a branch-and-bound over the
coprimality graph; the upper bound partitions candidates into classes that
share a prime (such a class contributes at most one antichain element).

The exact solver orders candidates by (smallest prime, value), 1 first, and
searches each candidate in, then out, keeping a set only when it is strictly
larger than the best so far:

- Witness: the first maximum antichain in that order, i.e. the one whose
  sorted positions are lexicographically least; the in-first search reaches
  it before every other maximum, and only a larger set could replace it.
- Dominance: x is dropped when an earlier candidate y != 1 has
  supp(y) <= supp(x); swapping x for y keeps an antichain of the same size
  that comes earlier, so x lies in no first maximum (and greedy, reaching y
  first, never takes x either).
- Floor: a second greedy, over each smallest-prime class in descending
  value, finds h elements, so the search starts from max(greedy, h - 1);
  both are below the maximum k* unless greedy is a maximum, and the search
  stops once the floor meets the class bound of the root.
- Bound: a search node holds a partition of its candidates into classes
  that share a prime, and prunes when the chosen set plus the number of
  classes that its remaining candidates meet is no more than the floor. A
  node inherits its parent's partition, restricted to its own candidates
  (each class still shares a prime); only when that does not prune does it
  run a fresh greedy partition, keeping whichever has fewer classes.
  Moving past a candidate takes one from its class, and the bound drops by
  one when the class empties. A node prunes only sets no larger than the
  floor, and the floor is below k* until the first maximum is reached, so
  any valid bound leaves the witness as it is; a tighter one visits no
  more nodes.

The search has no work bound: the node count can grow exponentially with
the candidates. At L = 10^4, neither prodset(P,P) nor up(primesIdx(1,2))
finishes within 8 s on a 2-vCPU Xeon.

1 is coprime to everything, so antichains containing 1 are legal.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, defaultdict
from itertools import combinations, islice

from . import arith
from .errors import IncompleteEnumerationError, PreconditionError
from .record import Record
from .semantics import (
    DEFAULT_BUDGET,
    enumerate_upto,
    facts,
    is_upward_closed,
    member,
    scan,
)
from .setexpr import SetExpr, render
from .verdict import Verdict, proved, refuted, unknown


class AntichainCertificate(Record):
    """A verified pairwise-coprime subset of the host expression."""

    __slots__ = ("witness", "host", "bound", "mode")
    _defaults = {"mode": "exact"}

    def to_json(self) -> dict:
        return {
            "kind": "antichain",
            "host_expr": render(self.host),
            "witness": list(self.witness),
            "bound": self.bound,
            "mode": self.mode,
        }


class CoveringCertificate(Record):
    """A finite set of moduli >= 2 covering the host's members.

    structural=True means the cover is proved for the whole set, not just
    for the members seen up to verified_bound.
    """

    __slots__ = ("covers", "host", "verified_bound", "structural")
    _defaults = {"structural": False}

    def to_json(self) -> dict:
        return {
            "kind": "covering",
            "host_expr": render(self.host),
            "covers": sorted(self.covers),
            "bound": self.verified_bound,
            "mode": "structural" if self.structural else "bound-verified",
        }


def _check_pairwise_coprime(xs) -> None:
    xs = sorted(xs)
    for i, a in enumerate(xs):
        for b in xs[i + 1 :]:
            if math.gcd(a, b) != 1:
                raise PreconditionError(f"{a} and {b} are not coprime")


def _greedy_antichain(candidates: list[int], supports: list[frozenset[int]]) -> list[int]:
    used: set[int] = set()
    chosen: list[int] = []
    for x, sup in zip(candidates, supports):
        if used.isdisjoint(sup):
            chosen.append(x)
            used |= sup
    return chosen


def _classes(supports: list[frozenset[int]]) -> list[int]:
    """Partition into prime-sharing classes: the class of each candidate.

    A pairwise-coprime subset takes at most one candidate from a class, so
    the number of classes bounds it. Classes are taken greedily: each time,
    the prime shared by the most remaining candidates (the smallest such
    prime on ties) forms a class and its candidates leave; 1, and each
    candidate left that shares no prime with another, is a class of its
    own. Counts are made once and then decremented.
    """
    labels = [-1] * len(supports)
    k = 0  # classes so far
    holders: defaultdict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(supports):
        if not s:
            labels[i] = k  # the element 1, if present
            k += 1
        for p in s:
            holders[p].append(i)
    count = {p: len(ids) for p, ids in holders.items()}
    # max-heap on (count, -p); an entry whose count has since dropped is stale
    heap = [(-c, p) for p, c in count.items()]
    heapq.heapify(heap)
    left = len(supports) - k
    while left:
        c, p = heapq.heappop(heap)
        if -c != count[p]:
            if count[p]:
                heapq.heappush(heap, (-count[p], p))
            continue
        if c == -1:
            # no prime is shared any more: each candidate is its own class
            for i, label in enumerate(labels):
                if label < 0:
                    labels[i] = k
                    k += 1
            return labels
        for i in holders[p]:
            if labels[i] < 0:
                labels[i] = k
                left -= 1
                for q in supports[i]:
                    count[q] -= 1
        k += 1
    return labels


def _complete_members(e: SetExpr, limit: int, budget: int) -> list[int]:
    """Members of e up to `limit`; raise if any verdict is Unknown."""
    members, complete = enumerate_upto(e, limit, max(budget, limit))
    if not complete:
        raise IncompleteEnumerationError(
            f"members of {render(e)} up to {limit} contain Unknown verdicts"
        )
    return members


def max_strong_antichain(
    e: SetExpr,
    limit: int,
    mode: str = "exact",
    budget: int = DEFAULT_BUDGET,
) -> tuple[int, AntichainCertificate]:
    """Largest (exact) or maximal (greedy) pairwise-coprime subset of the
    members of e up to `limit`."""
    if mode not in ("exact", "greedy"):
        raise PreconditionError(f"unknown mode {mode!r}")
    candidates = _complete_members(e, limit, budget)
    # ascending smallest-prime-factor order keeps exploration deterministic
    supports = [arith.prime_support(x) for x in candidates]
    order = sorted(
        range(len(candidates)),
        key=lambda i: (min(supports[i], default=1), candidates[i]),
    )
    candidates = [candidates[i] for i in order]
    supports = [supports[i] for i in order]

    greedy = _greedy_antichain(candidates, supports)
    if mode == "greedy":
        cert = AntichainCertificate(tuple(sorted(greedy)), e, limit, "greedy")
        return len(greedy), cert

    best = _exact_antichain(candidates, supports, greedy)
    cert = AntichainCertificate(tuple(sorted(best)), e, limit, "exact")
    return len(best), cert


def _undominated(
    candidates: list[int], supports: list[frozenset[int]]
) -> tuple[list[int], list[frozenset[int]]]:
    """Drop each x that an earlier candidate y != 1 with supp(y) <= supp(x)
    dominates.

    Such a y shares the smallest prime p of x, so it is found by looking up
    the products of the subsets of supp(x) that contain p among the radicals
    of the candidates before x.
    """
    radicals: set[int] = set()
    kept: list[int] = []
    kept_supports: list[frozenset[int]] = []
    for x, sup in zip(candidates, supports):
        if sup:
            p = min(sup)
            products = [p]
            for q in sup - {p}:
                products += [r * q for r in products]
            dominated = not radicals.isdisjoint(products)
            radicals.add(products[-1])  # the radical of x
            if dominated:
                continue
        kept.append(x)
        kept_supports.append(sup)
    return kept, kept_supports


def _class_greedy(candidates: list[int], supports: list[frozenset[int]]) -> list[int]:
    """Greedy over the smallest-prime classes in turn, each in descending
    value; a second lower bound next to the first greedy's."""
    order = sorted(
        range(len(candidates)),
        key=lambda i: (min(supports[i], default=1), -candidates[i]),
    )
    return _greedy_antichain(
        [candidates[i] for i in order], [supports[i] for i in order]
    )


def _exact_antichain(
    candidates: list[int], supports: list[frozenset[int]], greedy: list[int]
) -> list[int]:
    if len(set(_classes(supports))) == len(greedy):
        return greedy
    candidates, supports = _undominated(candidates, supports)
    labels = _classes(supports)
    root = len(set(labels))
    # a set is kept only when larger than floor, and floor < k* until the
    # first maximum is reached, so the witness is the same as from floor 0
    floor = max(len(greedy), len(_class_greedy(candidates, supports)) - 1)
    best = list(greedy)

    def search(
        rest: list[int], sups: list[frozenset[int]], labels: list[int], chosen: list[int]
    ) -> None:
        # sups[i] is rest[i]'s prime support and labels[i] its class in a
        # partition of rest into prime-sharing classes; tries rest[i] in,
        # then leaves it out and moves on to rest[i + 1]
        nonlocal best, floor
        if len(chosen) > floor:
            best = list(chosen)
            floor = len(chosen)
        size = Counter(labels)
        if floor < root and len(chosen) + len(size) > floor:
            fresh = _classes(sups)
            fresh_size = Counter(fresh)
            if len(fresh_size) < len(size):
                labels, size = fresh, fresh_size
        bound = len(size)  # the classes that rest[i:] meets
        for i, x in enumerate(rest):
            if floor == root or len(chosen) + bound <= floor:
                return
            sup = sups[i]
            kept = [j for j in range(i + 1, len(rest)) if sups[j].isdisjoint(sup)]
            search(
                [rest[j] for j in kept],
                [sups[j] for j in kept],
                [labels[j] for j in kept],
                chosen + [x],
            )
            size[labels[i]] -= 1
            if not size[labels[i]]:
                bound -= 1

    search(candidates, supports, labels, [])
    return best


def find_antichain_of_size(
    e: SetExpr, size: int, limit: int, budget: int = DEFAULT_BUDGET
) -> AntichainCertificate | None:
    """Greedily grow a pairwise-coprime subset of e up to `size`, scanning
    members ascending; stops at the first success."""
    budget = max(budget, limit)
    size = max(size, 1)
    chosen = tuple(islice(_coprime_greedy(e, limit, budget), size))
    return AntichainCertificate(chosen, e, limit, "greedy") if len(chosen) == size else None


def _coprime_greedy(e: SetExpr, limit: int, budget: int):
    """Yield, ascending, each member of e up to `limit` coprime to all those
    yielded before it. member() is asked only about an m coprime to them,
    a sparse set, so this search stays pointwise."""
    used: set[int] = set()
    for m in range(1, limit + 1):
        sup = arith.prime_support(m)
        if used.isdisjoint(sup) and member(e, m, budget).proved:
            used |= sup
            yield m


def covering_witness(
    e: SetExpr,
    k_max: int,
    n_max: int,
    limit: int,
    budget: int = DEFAULT_BUDGET,
) -> CoveringCertificate | None:
    """Smallest (minimal k, then lexicographic) cover {n_1..n_k}, n_i in
    [2, n_max], validated against all members of e up to `limit`."""
    if min(k_max, n_max, limit) < 1:
        raise PreconditionError("k_max, n_max and limit must be >= 1")
    members = _complete_members(e, limit, budget)
    sc = facts(e).cover
    for k in range(1, k_max + 1):
        for combo in combinations(range(2, n_max + 1), k):
            if all(any(m % n == 0 for n in combo) for m in members):
                structural = sc is not None and all(
                    any(c % n == 0 for n in combo) for c in sc
                )
                return CoveringCertificate(frozenset(combo), e, limit, structural)
    return None


def is_n_free(e: SetExpr, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Can no finite set of moduli >= 2 cover e?

    Proved requires a structural infinite-antichain rule; bounded evidence
    alone yields UnknownAtBound.
    """
    shape = facts(e)
    if shape.cover is not None:
        cert = CoveringCertificate(shape.cover, e, budget, structural=True)
        return refuted(budget, cert)
    if shape.antichain:
        sample = find_antichain_of_size(e, 4, min(budget, 10**4), budget)
        cert = {
            "rule": "infinite-antichain",
            "sample": list(sample.witness) if sample else [],
        }
        return proved(budget, cert)
    scan_limit = min(budget, 10**3)
    largest = list(_coprime_greedy(e, scan_limit, budget))
    best_cover = None
    try:
        best_cover = covering_witness(e, 3, 10, scan_limit, budget)
    except IncompleteEnumerationError:
        pass
    cert = {
        "largest_antichain": largest,
        "best_cover": sorted(best_cover.covers) if best_cover else None,
    }
    return unknown(budget, cert)


def extend_antichain(
    e: SetExpr, x: set[int] | frozenset[int] | list[int], limit: int,
    budget: int = DEFAULT_BUDGET,
) -> int | None:
    """Least member of e up to `limit` coprime to every element of x."""
    _check_pairwise_coprime(x)
    budget = max(budget, limit)
    xs = sorted(x)
    for m, is_proved in scan(e, limit, budget):
        if not is_proved:
            raise IncompleteEnumerationError(
                f"membership of {m} in {render(e)} is Unknown at budget {budget}"
            )
        if all(math.gcd(m, y) == 1 for y in xs):
            return m
    return None


class LcmWitness(Record):
    __slots__ = ("a", "b", "value")


def lcm_extension(
    a_expr: SetExpr,
    b_expr: SetExpr,
    x: set[int] | frozenset[int] | list[int],
    limit: int,
    budget: int = DEFAULT_BUDGET,
) -> LcmWitness | None:
    """Extend the pairwise-coprime set x inside the intersection of two
    upward-closed sets: pick least a in A and b in B coprime to x and return
    lcm(a, b), which lies in both by upward closure."""
    budget = max(budget, limit)
    for name, expr in (("A", a_expr), ("B", b_expr)):
        if not is_upward_closed(expr, budget).proved:
            raise PreconditionError(f"{name} = {render(expr)} is not proved upward closed")
    a = extend_antichain(a_expr, x, limit, budget)
    if a is None:
        return None
    b = extend_antichain(b_expr, x, limit, budget)
    if b is None:
        return None
    return LcmWitness(a, b, math.lcm(a, b))
