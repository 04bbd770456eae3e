"""Finite divisibility chains built from almost-disjoint prime families.

The family is one of ad_family's two schemes: residue, the prime-index
residue classes mod k, which are pairwise disjoint; or tree, binary branch
prefixes, any two of which meet in finitely many primes. The j-th link is
generated by the upward closure of the product set of the first j family
members; consecutive links are related by tilde-divisibility because a
product over a prefix divides the product over an extension.

Only finite chains are modelled. The double invariant checked by
verify_chain: each prime filter below a link divides it, and no link
contains the upward closure of a family member at or above its index.
"""

from __future__ import annotations

import math

from . import arith
from .errors import BudgetExceededError, FilterConstructionError, PreconditionError
from .filters import FilterPresentation, divides_tilde, make_filter, prime_product, principal
from .record import Record
from .semantics import DEFAULT_BUDGET, member
from .setexpr import (
    Comp,
    Inter,
    Lit,
    Mult,
    PrimesGeom,
    PrimesIdx,
    ProdSet,
    SetExpr,
    Union,
    Up,
    render,
)
from .verdict import Verdict, refuted, unknown

MAX_FACTORIAL_ARG = 500


def ad_family(k: int, scheme: str = "residue") -> list[SetExpr]:
    """k pairwise almost-disjoint infinite sets of primes.

    residue: prime-index residue classes mod k (pairwise disjoint).
    tree: branch-prefix families over the binary expansion of the prime
    index; distinct families share exactly the primes at their common
    prefix, a finite nonempty overlap.
    """
    if k < 1:
        raise PreconditionError("k must be >= 1")
    if scheme == "residue":
        return [PrimesIdx(r, k) for r in range(1, k + 1)]
    if scheme == "tree":
        width = max(1, (k - 1).bit_length()) if k > 1 else 0
        family: list[SetExpr] = []
        for j in range(k):
            branch = "1" + format(j, f"0{width}b") if width else "1"
            prefix_indices = {int(branch[:length], 2) for length in range(1, len(branch) + 1)}
            prefix_primes = frozenset(arith.nth_prime(i) for i in prefix_indices)
            tail = PrimesGeom(int(branch, 2), 2)
            family.append(Union(Lit(prefix_primes), tail))
        return family
    raise PreconditionError(f"unknown scheme {scheme!r}")


class ChainSpec(Record):
    """A chain of filters: links holds length + 1 filters."""

    __slots__ = ("length", "family", "links", "prime_filters", "scheme")

    def to_json(self) -> dict:
        return {
            "k": self.length,
            "scheme": self.scheme,
            "family": [render(a) for a in self.family],
            "links": [f.spec_text() for f in self.links],
        }


def build_chain(
    k: int, scheme: str = "residue", budget: int = DEFAULT_BUDGET
) -> ChainSpec:
    """Assemble the chain of filters over the first k members of
    ad_family(k, scheme)."""
    if k < 0:
        raise PreconditionError("k must be >= 0")
    used = ad_family(max(k, 1), scheme)[:k]
    links = [principal(1)]
    for j in range(1, k + 1):
        gen = Up(ProdSet(tuple(used[:j])))
        links.append(make_filter([gen], budget))
    prime_filters = [make_filter([Up(a)], budget) for a in used]
    return ChainSpec(k, tuple(used), tuple(links), tuple(prime_filters), scheme)


class PairResult(Record):
    """expectation is "divides" or "omits"."""

    __slots__ = ("beta", "alpha", "expectation", "verdict", "ok")

    def to_json(self) -> dict:
        out = {
            "beta": self.beta,
            "alpha": self.alpha,
            "expectation": self.expectation,
            "ok": self.ok,
        }
        out.update(self.verdict.to_json())
        return out


class ChainReport(Record):
    __slots__ = ("pairs", "passed")

    def to_json(self) -> dict:
        return {"passed": self.passed, "pairs": [p.to_json() for p in self.pairs]}


def verify_chain(
    chain: ChainSpec, limit: int = 10**6, budget: int = DEFAULT_BUDGET
) -> ChainReport:
    """Check both halves of the chain invariant for every index pair."""
    results: list[PairResult] = []
    k = chain.length
    for alpha in range(k + 1):
        link = chain.links[alpha]
        for beta in range(k):
            if beta < alpha:
                v = divides_tilde(chain.prime_filters[beta], link, budget)
                results.append(PairResult(beta, alpha, "divides", v, v.proved))
            else:
                v = _omission_verdict(chain, alpha, beta, limit, budget)
                results.append(PairResult(beta, alpha, "omits", v, v.refuted))
    return ChainReport(tuple(results), all(r.ok for r in results))


def _omission_verdict(
    chain: ChainSpec, alpha: int, beta: int, limit: int, budget: int
) -> Verdict:
    """Verdict for 'Up(A_beta) belongs to link alpha', expected Refuted.

    Witnesses are built constructively: the minimal core element of a long
    link is a product of many primes and exceeds any scanning bound.
    """
    target = Up(chain.family[beta])
    link = chain.links[alpha]
    if link.principal:
        v = member(target, link.point, budget)
        if v.refuted:
            return refuted(budget, link.point)
        return v
    # one fresh prime per earlier family member, each outside member beta
    outside = Comp(chain.family[beta])
    sources = tuple(Inter(source, outside) for source in chain.family[:alpha])
    witness = prime_product(sources, limit, limit)
    if witness is None:
        return unknown(budget, "no avoiding product within limit")
    in_core = member(link.core, witness, budget)
    in_target = member(target, witness, budget)
    if in_core.proved and in_target.refuted:
        return refuted(budget, witness)
    # a witness in both the core and the target only shows that they meet,
    # not that the core lies inside the target
    return unknown(budget, witness)


def max_approx(k: int, budget: int = DEFAULT_BUDGET) -> FilterPresentation:
    """Finite stand-in for the top class: the filter generated by the
    multiple-sets of 1!, 2!, ..., k!. Its core is the multiples of k!, so
    it sits tilde-above every principal point up to k."""
    if k < 1:
        raise PreconditionError("k must be >= 1")
    if k > MAX_FACTORIAL_ARG:
        raise BudgetExceededError(f"factorial argument {k} exceeds cap {MAX_FACTORIAL_ARG}")
    gens = tuple(Mult(math.factorial(j)) for j in range(1, k + 1))
    core: SetExpr = gens[0]
    for g in gens[1:]:
        core = Inter(core, g)
    witness = math.factorial(k)
    if not member(core, witness, budget).proved:
        raise FilterConstructionError(
            f"{witness} = {k}! is not a verified member of core {render(core)}"
        )
    return FilterPresentation("generated", core, gens=gens, fip_witness=witness)
