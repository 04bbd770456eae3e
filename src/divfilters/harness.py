"""Verification harness: finite shadows of the implemented results.

Each suite checks a documented consequence of one result on bounded,
seeded, or corpus-driven instances. A failing case carries its
counterexample and, when one CLI query asks what the suite asked, that
query as a replayable command line, with --budget when the suite's budget
is not the default.

The search-shaped suites (L2.1a, L2.1b, T2.2, T3.3, E3.5b, L3.7) are
generators: each yields (counterexample, replay argv) pairs in its loop
order and returns its pass text, and _first turns the first pair, or the
pass text, into the case. A generator stops at its first yield, so no
work and no random draw happens past the first counterexample.

Suite ids:
  L2.1a    quotient case rule and the D(.)-disjunction consequence
  L2.1b    prime-up product fast path vs truncated definition unfolding
  T2.2     Euclid shadow: prime-up sets in a principal product
  T3.3     principal tilde-divisibility is ordinary divisibility
  L3.4-eq3 interpolation triples a | c | b on cores
  E3.5b    factorial set membership shadow
  L3.7     scaling by a principal factor preserves tilde-divisibility
  T4.2     finite divisibility chain invariant
  L5.3     covering/antichain duality on the expression corpus
  T5.4ii   members of an N-free filter contain long strong antichains
  T5.5     lcm extension inside intersections of N-free up-closed sets
"""

from __future__ import annotations

import math
import random
from typing import Callable, Generator, Optional

from . import arith
from .antichain import (
    find_antichain_of_size,
    is_n_free,
    lcm_extension,
    max_strong_antichain,
)
from .corpus import default_filters, load_corpus, random_expressions
from .chains import build_chain, verify_chain
from .errors import BudgetExceededError, IncompleteEnumerationError, PreconditionError
from .filters import (
    FilterPresentation,
    Quot_of,
    d_member,
    divides_tilde,
    filter_member,
    interpolation_check,
    make_filter,
    principal,
    product_member,
    scale_filter,
)
from .record import Record
from .semantics import (
    DEFAULT_BUDGET,
    enumerate_upto,
    evaluate_range,
    in_bulk,
    member,
    quotient_case_rule,
    syntactic_cover,
)
from .setexpr import (
    FACTORIALS,
    Inter,
    Lit,
    Mult,
    PrimesIdx,
    ProdSet,
    Quot,
    SetExpr,
    Up,
    contains_down,
    render,
)
from .verdict import SCHEMA_VERSION


class HarnessCase(Record):
    """outcome is "pass", "fail" or "skipped"; replay is the CLI argv that
    reproduces a failure."""

    __slots__ = ("lemma_id", "case_id", "outcome", "parameters", "detail", "replay")
    _defaults = {"detail": "", "replay": None}

    def to_json(self) -> dict:
        out = {
            "lemma_id": self.lemma_id,
            "case_id": self.case_id,
            "outcome": self.outcome,
            "parameters": self.parameters,
        }
        if self.detail:
            out["detail"] = self.detail
        if self.replay is not None:
            out["counterexample_replay"] = self.replay
        return out


class HarnessReport(Record):
    __slots__ = ("cases", "seed")

    @property
    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "skipped": 0}
        for case in self.cases:
            out[case.outcome] += 1
        return out

    @property
    def passed(self) -> bool:
        return self.counts["fail"] == 0

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "seed": self.seed,
            "counts": self.counts,
            "passed": self.passed,
            "cases": [c.to_json() for c in self.cases],
        }


class HarnessParams(Record):
    """bound and k default per suite when None; budget has no such default.
    bound, budget and k are naturals >= 1."""

    __slots__ = ("bound", "budget", "seed", "corpus", "k")
    _defaults = {"bound": None, "budget": DEFAULT_BUDGET, "seed": 0,
                 "corpus": None, "k": None}
    _guards = (("bound is None or bound >= 1", "harness bound must be a natural >= 1"),
               ("budget is not None and budget >= 1", "harness budget must be a natural >= 1"),
               ("k is None or k >= 1", "harness k must be a natural >= 1"))

    def expressions(self) -> list[SetExpr]:
        exprs = self.corpus if self.corpus is not None else load_corpus()
        if self.seed:
            exprs = exprs + random_expressions(self.seed, 10)
        return exprs


def _case(lemma: str, case_id: str, ok: bool, params: dict, detail: str = "",
          replay: Optional[list[str]] = None) -> HarnessCase:
    return HarnessCase(lemma, case_id, "pass" if ok else "fail", params,
                       detail, None if ok else replay)


def _replay(budget: int, *argv: str) -> list[str]:
    """The CLI argv that asks the query a suite made at budget."""
    return list(argv) + ([] if budget == DEFAULT_BUDGET else ["--budget", str(budget)])


def _skip(lemma: str, case_id: str, params: dict, detail: str) -> HarnessCase:
    return HarnessCase(lemma, case_id, "skipped", params, detail)


def _first(lemma: str, case_id: str, params: dict,
           search: Generator[tuple[object, Optional[list[str]]], None, str]) -> HarnessCase:
    """The case of a search: it fails at the first (counterexample, replay)
    pair the search yields, with str(counterexample) as the detail, and
    passes with the search's return value as the detail if it yields none."""
    try:
        bad, replay = next(search)
    except StopIteration as done:
        return HarnessCase(lemma, case_id, "pass", params, done.value)
    return HarnessCase(lemma, case_id, "fail", params, str(bad), replay)


# --- L2.1a: quotient case rule + D(.) disjunction -----------------------------

def _sample_prime_sets(rng: random.Random, count: int) -> list[frozenset[int]]:
    primes = arith.primes_upto(50)
    return [
        frozenset(rng.sample(primes, rng.randint(1, 6))) for _ in range(count)
    ]


def _suite_l21a(p: HarnessParams) -> list[HarnessCase]:
    bound = p.bound or 2000
    rng = random.Random(p.seed)
    params = {"bound": bound, "seed": p.seed}

    def case_rule():
        for b_set in _sample_prime_sets(rng, 40):
            m = rng.randint(1, bound)
            rule = quotient_case_rule(b_set, m)
            direct = Quot_of(Up(Lit(b_set)), m)
            for x in range(1, 201):
                if member(rule, x, p.budget).proved != member(direct, x, p.budget).proved:
                    yield (sorted(b_set), m, x), _replay(
                        p.budget, "member", render(Quot(Up(Lit(b_set)), m)), str(x))
        return "40 seeded prime sets"

    # D(F.G) restricted to prime-up sets sits inside D(F) union D(G)
    def d_disjunction():
        f = make_filter([Up(PrimesIdx(1, 2))], p.budget)
        g = make_filter([Up(PrimesIdx(2, 2))], p.budget)
        for b_set in _sample_prime_sets(rng, 10):
            e = Up(Lit(b_set))
            if product_member(f, g, e, p.budget).proved and not (
                    d_member(f, e, p.budget).proved or d_member(g, e, p.budget).proved):
                yield sorted(b_set), _replay(p.budget, "product-member", f.spec_text(),
                                             g.spec_text(), render(e))
        return "prime-up targets over seeded sets"

    # the list evaluates in order, so case_rule's draws all precede d_disjunction's
    return [_first("L2.1a", "case-rule-pointwise", params, case_rule()),
            _first("L2.1a", "d-disjunction", params, d_disjunction())]


# --- L2.1b: fast path vs truncated unfolding ----------------------------------

def _brute_refutation(f_members: list[int], g_members: list[int],
                      b_set: frozenset[int], bound: int) -> Optional[tuple[int, int]]:
    """Truncated unfolding of the product definition for a prime-up target:
    a pair (n, b) with n in core(F), b in core(G), n*b <= bound and n*b
    divisible by no prime of B refutes membership of Up(B) in F.G.
    Returns the first such pair or None.

    B is a set of distinct primes, so n*b is divisible by none of them
    exactly when n and b are both coprime to their product. g_members is
    ascending, so the pair, if any, has the first such b in core(G)."""
    radical = math.prod(b_set)
    b = next((b for b in g_members if math.gcd(b, radical) == 1), None)
    if b is None:
        return None
    for n in f_members[:40]:
        if n * b <= bound and math.gcd(n, radical) == 1:
            return (n, b)
    return None


def _suite_l21b(p: HarnessParams) -> list[HarnessCase]:
    bound = p.bound or 10**5
    rng = random.Random(p.seed)
    params = {"bound": bound, "seed": p.seed}
    pairs = []
    for _ in range(20):
        r1, m1 = rng.randint(1, 3), 3
        r2, m2 = rng.randint(1, 4), 4
        pairs.append((
            make_filter([Up(PrimesIdx(r1, m1))], p.budget),
            make_filter([Up(PrimesIdx(r2, m2))], p.budget),
        ))
    targets = [(Up(Lit(b)), b) for b in _sample_prime_sets(rng, 20)]
    member_cache: dict[tuple[str, int], list[int]] = {}

    def core_members(filt: FilterPresentation, limit: int) -> list[int]:
        key = (filt.spec_text(), limit)
        if key not in member_cache:
            member_cache[key] = enumerate_upto(filt.core, limit, max(p.budget, limit))[0]
        return member_cache[key]

    def search():
        unknowns = total = 0
        for f, g in pairs:
            f_members = core_members(f, 400)
            g_members = core_members(g, bound // 2)
            for e, b_set in targets:
                total += 1
                fast = product_member(f, g, e, p.budget)
                if fast.unknown:
                    unknowns += 1
                    continue
                # Proved needs no refuting pair, Refuted needs one
                witness = _brute_refutation(f_members, g_members, b_set, bound)
                if fast.proved == (witness is not None):
                    yield (f"fast path disagrees with unfolding, witness {witness}",
                           _replay(p.budget, "product-member", f.spec_text(),
                                   g.spec_text(), render(e)))
        rate = f"unknown rate {unknowns}/{total}"
        if unknowns * 5 >= total:  # 20% or more unknowns
            yield rate, None
        return rate

    return [_first("L2.1b", "fast-path-vs-unfolding", params, search())]


# --- T2.2: Euclid shadow --------------------------------------------------------

def _suite_t22(p: HarnessParams) -> list[HarnessCase]:
    """principal(a).principal(b) holds up({q}) exactly when q | a*b, so the
    grid of pairs a, b <= bound is read from one range of up({q}) up to
    bound^2: row a is the slice of its multiples a*b. Euclid says its states
    are all 1 (Proved) when q | a, else 1 exactly at the multiples of q and 0
    (Refuted) elsewhere. product_member is asked pointwise on row 1, column 1
    and the diagonal, so a fault in either path fails the suite; the first
    failing pair in (q, a, b) order is reported, with the query that made it."""
    def search(bound: int, budget: int):
        points = [principal(i) for i in range(1, bound + 1)]
        sample = sorted({(1, b) for b in range(1, bound + 1)}
                        | {(a, 1) for a in range(1, bound + 1)}
                        | {(a, a) for a in range(1, bound + 1)})
        everywhere = b"\1" * bound
        for q in arith.primes_upto(100):
            target = Up(Lit(frozenset({q})))
            multiples = ((b"\0" * (q - 1) + b"\1") * (bound // q + 1))[:bound]
            bad = []  # (a, b, replay); on a tie min keeps the pointwise one
            for a, b in sample:
                got = product_member(points[a - 1], points[b - 1], target, budget).proved
                if got != (a % q == 0 or b % q == 0):
                    bad.append((a, b, _replay(budget, "product-member", f"principal:{a}",
                                              f"principal:{b}", render(target))))
                    break
            states = evaluate_range(target, bound * bound, budget)
            for a in range(1, bound + 1):
                row = states[a : a * bound + 1 : a]
                want = everywhere if a % q == 0 else multiples
                if row != want:
                    b = next(i for i in range(bound) if row[i] != want[i]) + 1
                    bad.append((a, b, _replay(budget, "enumerate", render(target),
                                              "--bound", str(a * b))))
                    break
            if bad:
                a, b, replay = min(bad, key=lambda fault: fault[:2])
                yield (q, a, b), replay
        return f"primes <= 100, points <= {bound}"

    bound = p.bound or 300
    params = {"bound": bound}
    if not in_bulk(Up(Lit(frozenset({2}))), bound * bound, p.budget):
        # a range of up({q}) that is not in bulk asks member at each of the
        # bound^2 points
        return [_skip("T2.2", "euclid-shadow", params,
                      f"the range of up({{q}}) to bound^2 = {bound * bound} "
                      f"is not evaluated in bulk")]
    return [_first("T2.2", "euclid-shadow", params, search(bound, p.budget))]


# --- T3.3: principal equivalence ------------------------------------------------

def _suite_t33(p: HarnessParams) -> list[HarnessCase]:
    # bound and budget are arguments, not closure cells, so the 250,000
    # iterations of the inner loop read only locals
    def search(bound: int, budget: int):
        points = [principal(i) for i in range(1, bound + 1)]
        for m in range(1, bound + 1):
            f = points[m - 1]
            for n in range(1, bound + 1):
                if divides_tilde(f, points[n - 1], budget).proved != (n % m == 0):
                    yield (m, n), _replay(budget, "divides", f"principal:{m}",
                                          f"principal:{n}")
        return f"all pairs <= {bound}"

    bound = p.bound or 500
    return [_first("T3.3", "principal-equivalence", {"bound": bound},
                   search(bound, p.budget))]


# --- L3.4-eq3: interpolation ----------------------------------------------------

def _suite_l34(p: HarnessParams) -> list[HarnessCase]:
    bound = p.bound or 1000
    params = {"bound": bound}
    rng = random.Random(p.seed)
    cases = []
    fixed: list[tuple[FilterPresentation, FilterPresentation, str, bool]] = [
        (make_filter([Mult(24)]), make_filter([Mult(24)]), "mult24-self", True),
        (principal(2), principal(6), "principal-2-6", False),
        (make_filter([Lit(frozenset({2, 3, 5, 7}))]),
         make_filter([Lit(frozenset({2, 3, 5, 7}))]), "antichain-core", False),
    ]
    for n in rng.sample(range(2, 51), 5):
        fixed.append((make_filter([Mult(n)]), make_filter([Mult(n)]),
                      f"mult{n}-self", True))
    for f, g, case_id, expect_proved in fixed:
        v = interpolation_check(f, g, bound, p.budget)
        ok = v.proved if expect_proved else v.refuted
        cases.append(_case(
            "L3.4-eq3", case_id, ok, params,
            detail=f"verdict {v.state.value}, expected "
                   f"{'proved' if expect_proved else 'refuted'}",
            replay=_replay(p.budget, "interp", f.spec_text(), g.spec_text(),
                           "--bound", str(bound)),
        ))
    return cases


# --- E3.5b: factorials ----------------------------------------------------------

def _suite_e35b(p: HarnessParams) -> list[HarnessCase]:
    def search():
        # Independent oracle: m*(n-1)! is a factorial iff it appears in the
        # directly computed factorial table. For m != n that is rare but not
        # impossible (1*(n-1)! = (n-1)!, 6*1! = 3!, 12*2! = 4!), so the
        # expectation comes from the oracle, not from m == n alone; and
        # n*(n-1)! = n! must be in the table.
        table = {math.factorial(i) for i in range(1, 20)}
        for n in range(2, 13):
            base = math.factorial(n - 1)
            for m in range(1, 13):
                got = member(FACTORIALS, m * base, p.budget)
                want = m * base in table
                if (m == n and not want) or got.proved != want or got.refuted == want:
                    yield (n, m), _replay(p.budget, "member", "factorials", str(m * base))
        return "2 <= n <= 12, m <= 12"

    return [_first("E3.5b", "factorial-shadow", {}, search())]


# --- L3.7: scaling preserves tilde-divisibility ---------------------------------

def _suite_l37(p: HarnessParams) -> list[HarnessCase]:
    h_max = p.bound or 50

    def search():
        filters = default_filters()
        checked = 0
        for f in filters:
            for g in filters:
                if not divides_tilde(f, g, p.budget).proved:
                    continue
                for h in range(2, h_max + 1):
                    checked += 1
                    sf, sg = scale_filter(f, h), scale_filter(g, h)
                    if not divides_tilde(sf, sg, p.budget).proved:
                        yield (f, g, h), _replay(p.budget, "divides", sf.spec_text(),
                                                 sg.spec_text())
        return f"{checked} scaled pairs"

    return [_first("L3.7", "scale-shadow", {"h_max": h_max}, search())]


# --- T4.2: finite chain ---------------------------------------------------------

def _suite_t42(p: HarnessParams) -> list[HarnessCase]:
    k = p.k or 6
    limit = p.bound or 10**6
    params = {"k": k, "bound": limit}
    chain = build_chain(k, budget=p.budget)
    report = verify_chain(chain, limit, p.budget)
    violated = [(v.beta, v.alpha) for v in report.pairs if not v.ok]

    def chain_law():
        for j in range(k):
            f, g = chain.links[j], chain.links[j + 1]
            if not divides_tilde(f, g, p.budget).proved:
                yield f"broken link {j} to {j + 1}", _replay(
                    p.budget, "divides", f.spec_text(), g.spec_text())
        return "consecutive links tilde-divide"

    return [
        _case("T4.2", "invariant-4", report.passed, params,
              detail=(f"all {len(report.pairs)} pairs as expected" if report.passed
                      else f"violated pairs {violated}"),
              replay=_replay(p.budget, "chain-verify", str(k), "--scheme", "residue",
                             "--bound", str(limit))),
        _first("T4.2", "chain-law", params, chain_law()),
    ]


# --- L5.3: duality on the corpus ------------------------------------------------

# L5.3 and T5.4ii search greedy antichains up to one limit, and replay that search
_GREEDY_LIMIT = 10**5
_GREEDY_REPLAY = ("--bound", str(_GREEDY_LIMIT), "--greedy")


def _suite_l53(p: HarnessParams) -> list[HarnessCase]:
    bound = p.bound or 1000
    cases = []
    for e in p.expressions():
        name = render(e)
        params = {"expression": name, "bound": bound}
        cover = syntactic_cover(e)
        if cover is not None:
            try:
                size, cert = max_strong_antichain(e, bound, mode="exact", budget=p.budget)
            except IncompleteEnumerationError:
                cases.append(_skip("L5.3", name, params, "incomplete enumeration"))
                continue
            ok = size <= len(cover)
            cases.append(_case(
                "L5.3", name, ok, params,
                detail=f"cover size {len(cover)}, exact antichain {size}",
                replay=_replay(p.budget, "antichain", name, "--bound", str(bound), "--exact"),
            ))
            continue
        verdict = is_n_free(e, p.budget)
        if verdict.proved:
            # the greedy antichain of size t is the first t members of one
            # fixed sequence, so size 6 succeeds iff every size 1..6 does
            ok = find_antichain_of_size(e, 6, _GREEDY_LIMIT, p.budget) is not None
            missing = None if ok else next(
                t for t in range(1, 7)
                if find_antichain_of_size(e, t, _GREEDY_LIMIT, p.budget) is None)
            cases.append(_case(
                "L5.3", name, ok, params,
                detail="antichains of sizes 1..6 found" if ok
                       else f"no antichain of size {missing}",
                replay=_replay(p.budget, "antichain", name, *_GREEDY_REPLAY),
            ))
        else:
            cases.append(_skip("L5.3", name, params,
                               f"n-freeness {verdict.state.value}"))
    return cases


# --- T5.4ii: filter members contain long antichains -----------------------------

def _suite_t54ii(p: HarnessParams) -> list[HarnessCase]:
    cases = []
    exprs = p.expressions()
    for f in default_filters():
        if f.principal or not is_n_free(f.core, p.budget).proved:
            continue
        fname = f.spec_text()
        for e in exprs:
            if contains_down(e):
                continue
            if not filter_member(f, e, p.budget).proved:
                continue
            name = f"{fname} ∋ {render(e)}"
            ok = find_antichain_of_size(e, 4, _GREEDY_LIMIT, p.budget) is not None
            cases.append(_case(
                "T5.4ii", name, ok, {"filter": fname, "expression": render(e)},
                detail="antichains of sizes 1..4 found" if ok else "missing size",
                replay=_replay(p.budget, "antichain", render(e), *_GREEDY_REPLAY),
            ))
    return cases


# --- T5.5: lcm extension --------------------------------------------------------

def _nfree_up_pairs(rng: random.Random, count: int) -> list[tuple[SetExpr, SetExpr]]:
    atoms = [Up(PrimesIdx(r, m)) for m in (2, 3, 4, 5) for r in range(1, m + 1)]
    atoms.append(Up(ProdSet((PrimesIdx(1, 2), PrimesIdx(2, 2)))))
    pairs = []
    while len(pairs) < count:
        a, b = rng.sample(atoms, 2)
        pairs.append((a, b))
    return pairs


def _suite_t55(p: HarnessParams) -> list[HarnessCase]:
    limit = p.bound or 10**5
    rng = random.Random(p.seed)
    cases = []
    for idx, (a, b) in enumerate(_nfree_up_pairs(rng, 10)):
        name = f"pair-{idx}:{render(a)}|{render(b)}"
        params = {"a": render(a), "b": render(b), "bound": limit}
        if not (is_n_free(a, p.budget).proved and is_n_free(b, p.budget).proved):
            cases.append(_skip("T5.5", name, params, "pair not proved N-free"))
            continue
        x: list[int] = []
        detail, replay = "", None  # only the intersection check is a CLI query
        for _ in range(6):
            w = lcm_extension(a, b, x, limit, p.budget)
            if w is None:
                detail = f"no extension of X={x}"
                break
            inter, budget = Inter(a, b), max(p.budget, w.value)
            if not member(inter, w.value, budget).proved:
                detail = f"lcm {w.value} not in intersection"
                replay = _replay(budget, "member", render(inter), str(w.value))
                break
            if any(math.gcd(w.value, y) != 1 for y in x):
                detail = f"lcm {w.value} not coprime to X={x}"
                break
            x.append(w.value)
        cases.append(_case("T5.5", name, not detail, params,
                           detail=detail or f"grew X to {x}", replay=replay))
    return cases


_SUITES: dict[str, Callable[[HarnessParams], list[HarnessCase]]] = {
    "L2.1a": _suite_l21a,
    "L2.1b": _suite_l21b,
    "T2.2": _suite_t22,
    "T3.3": _suite_t33,
    "L3.4-eq3": _suite_l34,
    "E3.5b": _suite_e35b,
    "L3.7": _suite_l37,
    "T4.2": _suite_t42,
    "L5.3": _suite_l53,
    "T5.4ii": _suite_t54ii,
    "T5.5": _suite_t55,
}
LEMMA_IDS = tuple(_SUITES)


def run_harness(
    lemma_ids: Optional[list[str]] = None,
    params: Optional[HarnessParams] = None,
) -> HarnessReport:
    """Run the selected lemma suites (all by default), deterministically
    for a given seed; cases are reported in canonical (suite, case) order."""
    params = params or HarnessParams()
    ids = list(lemma_ids) if lemma_ids else list(LEMMA_IDS)
    for lemma in ids:
        if lemma not in _SUITES:
            raise PreconditionError(
                f"unknown lemma id {lemma!r}; valid: {', '.join(LEMMA_IDS)}")
    cases: list[HarnessCase] = []
    for lemma in sorted(ids):
        try:
            cases.extend(_SUITES[lemma](params))
        except BudgetExceededError as exc:
            # name what the user chose, not the limit a suite derived from it
            at = "" if params.bound is None else f" at bound {params.bound}"
            raise BudgetExceededError(f"suite {lemma}{at}: {exc}") from None
    return HarnessReport(tuple(cases), params.seed)
