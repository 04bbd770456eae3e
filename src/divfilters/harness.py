"""Verification harness: finite shadows of the implemented results.

Each suite checks a documented consequence of one result on bounded,
seeded, or corpus-driven instances. A failing case always carries a
counterexample serialized as a replayable command line for the
single-query subcommands of the CLI.

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
from typing import Callable, Optional

from . import arith
from .antichain import (
    find_antichain_of_size,
    is_n_free,
    lcm_extension,
    max_strong_antichain,
)
from .corpus import default_filters, load_corpus, random_expressions
from .chains import build_chain, verify_chain
from .errors import IncompleteEnumerationError
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
    __slots__ = ("bound", "budget", "seed", "corpus", "k")
    _defaults = {"bound": None, "budget": DEFAULT_BUDGET, "seed": 0,
                 "corpus": None, "k": None}

    def expressions(self) -> list[SetExpr]:
        exprs = self.corpus if self.corpus is not None else load_corpus()
        if self.seed:
            exprs = exprs + random_expressions(self.seed, 10)
        return exprs


def _case(lemma: str, case_id: str, ok: bool, params: dict, detail: str = "",
          replay: Optional[list[str]] = None) -> HarnessCase:
    return HarnessCase(lemma, case_id, "pass" if ok else "fail", params,
                       detail, None if ok else replay)


def _skip(lemma: str, case_id: str, params: dict, detail: str) -> HarnessCase:
    return HarnessCase(lemma, case_id, "skipped", params, detail)


# --- L2.1a: quotient case rule + D(.) disjunction -----------------------------

def _sample_prime_sets(rng: random.Random, count: int) -> list[frozenset[int]]:
    primes = arith.primes_upto(50)
    return [
        frozenset(rng.sample(primes, rng.randint(1, 6))) for _ in range(count)
    ]


def _suite_l21a(p: HarnessParams) -> list[HarnessCase]:
    bound = p.bound or 2000
    rng = random.Random(p.seed)
    cases: list[HarnessCase] = []
    params = {"bound": bound, "seed": p.seed}
    bad = None
    for b_set in _sample_prime_sets(rng, 40):
        m = rng.randint(1, bound)
        rule = quotient_case_rule(b_set, m)
        direct = Quot_of(Up(Lit(b_set)), m)
        for x in range(1, 201):
            if member(rule, x, p.budget).proved != member(direct, x, p.budget).proved:
                bad = (sorted(b_set), m, x)
                break
        if bad:
            break
    replay = None
    if bad:
        b_sorted, m, x = bad
        expr = "quot(up({" + ",".join(map(str, b_sorted)) + "})," + str(m) + ")"
        replay = ["member", expr, str(x)]
    cases.append(_case("L2.1a", "case-rule-pointwise", bad is None, params,
                       detail=str(bad) if bad else "40 seeded prime sets",
                       replay=replay))

    # D(F.G) restricted to prime-up sets sits inside D(F) union D(G)
    f = make_filter([Up(PrimesIdx(1, 2))], p.budget)
    g = make_filter([Up(PrimesIdx(2, 2))], p.budget)
    bad2 = None
    for b_set in _sample_prime_sets(rng, 10):
        e = Up(Lit(b_set))
        prod = product_member(f, g, e, p.budget)
        if prod.proved:
            left = d_member(f, e, p.budget)
            right = d_member(g, e, p.budget)
            if not (left.proved or right.proved):
                bad2 = sorted(b_set)
                break
    cases.append(_case(
        "L2.1a", "d-disjunction", bad2 is None, params,
        detail=str(bad2) if bad2 else "prime-up targets over seeded sets",
        replay=None if bad2 is None else [
            "product-member", f.spec_text(), g.spec_text(),
            "up({" + ",".join(map(str, bad2)) + "})",
        ],
    ))
    return cases


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

    unknowns = total = 0
    bad = None
    for f, g in pairs:
        f_members = core_members(f, 400)
        g_members = core_members(g, bound // 2)
        for e, b_set in targets:
            total += 1
            fast = product_member(f, g, e, p.budget)
            if fast.unknown:
                unknowns += 1
                continue
            witness = _brute_refutation(f_members, g_members, b_set, bound)
            if fast.proved and witness is not None:
                bad = (f, g, e, witness)
                break
            if fast.refuted and witness is None:
                bad = (f, g, e, None)
                break
        if bad:
            break
    detail = f"unknown rate {unknowns}/{total}"
    ok = bad is None and unknowns * 5 < total  # < 20% unknowns
    replay = None
    if bad is not None:
        replay = ["product-member", bad[0].spec_text(), bad[1].spec_text(),
                  render(bad[2])]
        detail = f"fast path disagrees with unfolding, witness {bad[3]}"
    return [_case("L2.1b", "fast-path-vs-unfolding", ok, params, detail, replay)]


# --- T2.2: Euclid shadow --------------------------------------------------------

def _suite_t22(p: HarnessParams) -> list[HarnessCase]:
    bound = p.bound or 300
    params = {"bound": bound}
    bad = None
    points = [principal(i) for i in range(1, bound + 1)]
    for q in arith.primes_upto(100):
        target = Up(Lit(frozenset({q})))
        for f_pt in range(1, bound + 1):
            f = points[f_pt - 1]
            for g_pt in range(1, bound + 1):
                got = product_member(f, points[g_pt - 1], target, p.budget).proved
                want = f_pt % q == 0 or g_pt % q == 0
                if got != want:
                    bad = (q, f_pt, g_pt)
                    break
            if bad:
                break
        if bad:
            break
    replay = None
    if bad:
        q, f_pt, g_pt = bad
        replay = ["product-member", f"principal:{f_pt}", f"principal:{g_pt}",
                  "up({" + str(q) + "})"]
    return [_case("T2.2", "euclid-shadow", bad is None, params,
                  detail=str(bad) if bad else f"primes <= 100, points <= {bound}",
                  replay=replay)]


# --- T3.3: principal equivalence ------------------------------------------------

def _suite_t33(p: HarnessParams) -> list[HarnessCase]:
    bound = p.bound or 500
    params = {"bound": bound}
    bad = None
    points = [principal(i) for i in range(1, bound + 1)]
    for m in range(1, bound + 1):
        f = points[m - 1]
        for n in range(1, bound + 1):
            if divides_tilde(f, points[n - 1], p.budget).proved != (n % m == 0):
                bad = (m, n)
                break
        if bad:
            break
    replay = None if bad is None else [
        "divides", f"principal:{bad[0]}", f"principal:{bad[1]}"]
    return [_case("T3.3", "principal-equivalence", bad is None, params,
                  detail=str(bad) if bad else f"all pairs <= {bound}",
                  replay=replay)]


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
            replay=["interp", f.spec_text(), g.spec_text(),
                    "--bound", str(bound)],
        ))
    return cases


# --- E3.5b: factorials ----------------------------------------------------------

def _suite_e35b(p: HarnessParams) -> list[HarnessCase]:
    params = {}
    bad = None
    # Independent oracle: m*(n-1)! is a factorial iff it appears in the
    # directly computed factorial table. For m != n that is rare but not
    # impossible (1*(n-1)! = (n-1)!, 6*1! = 3!, 12*2! = 4!), so the
    # expectation comes from the oracle, not from m == n alone.
    table = {math.factorial(i) for i in range(1, 20)}
    for n in range(2, 13):
        base = math.factorial(n - 1)
        for m in range(1, 13):
            got = member(FACTORIALS, m * base, p.budget)
            want = m * base in table
            if m == n and not want:
                bad = (n, m)  # n*(n-1)! = n! must be in the table
                break
            if got.proved != want or got.refuted == want:
                bad = (n, m)
                break
        if bad:
            break
    replay = None
    if bad:
        n, m = bad
        replay = ["member", "factorials", str(m * math.factorial(n - 1))]
    return [_case("E3.5b", "factorial-shadow", bad is None, params,
                  detail=str(bad) if bad else "2 <= n <= 12, m <= 12",
                  replay=replay)]


# --- L3.7: scaling preserves tilde-divisibility ---------------------------------

def _suite_l37(p: HarnessParams) -> list[HarnessCase]:
    h_max = p.bound or 50
    params = {"h_max": h_max}
    filters = default_filters()
    bad = None
    checked = 0
    for f in filters:
        for g in filters:
            if not divides_tilde(f, g, p.budget).proved:
                continue
            for h in range(2, h_max + 1):
                checked += 1
                sf, sg = scale_filter(f, h), scale_filter(g, h)
                if not divides_tilde(sf, sg, p.budget).proved:
                    bad = (f, g, h)
                    break
            if bad:
                break
        if bad:
            break
    replay = None
    if bad:
        f, g, h = bad
        replay = ["divides", scale_filter(f, h).spec_text(),
                  scale_filter(g, h).spec_text()]
    return [_case("L3.7", "scale-shadow", bad is None, params,
                  detail=str(bad) if bad else f"{checked} scaled pairs",
                  replay=replay)]


# --- T4.2: finite chain ---------------------------------------------------------

def _suite_t42(p: HarnessParams) -> list[HarnessCase]:
    k = p.k or 6
    limit = p.bound or 10**6
    params = {"k": k, "bound": limit}
    chain = build_chain(k, scheme="residue")
    report = verify_chain(chain, limit, p.budget)
    cases = []
    violated = [pr for pr in report.pairs if not pr.ok]
    cases.append(_case(
        "T4.2", "invariant-4", report.passed, params,
        detail=(f"all {len(report.pairs)} pairs as expected" if report.passed
                else f"violated pairs {[(v.beta, v.alpha) for v in violated]}"),
        replay=["chain-verify", str(k), "--scheme", "residue",
                "--bound", str(limit)],
    ))
    chain_ok = all(
        divides_tilde(chain.links[j], chain.links[j + 1], p.budget).proved
        for j in range(k)
    )
    cases.append(_case(
        "T4.2", "chain-law", chain_ok, params,
        detail="consecutive links tilde-divide" if chain_ok else "broken link",
        replay=["chain-verify", str(k)],
    ))
    return cases


# --- L5.3: duality on the corpus ------------------------------------------------

def _suite_l53(p: HarnessParams) -> list[HarnessCase]:
    bound = p.bound or 1000
    cases = []
    for e in p.expressions():
        name = render(e)
        params = {"expression": name, "bound": bound}
        cover = syntactic_cover(e)
        if cover is not None:
            try:
                size, cert = max_strong_antichain(e, bound, mode="exact")
            except IncompleteEnumerationError:
                cases.append(_skip("L5.3", name, params, "incomplete enumeration"))
                continue
            ok = size <= len(cover)
            cases.append(_case(
                "L5.3", name, ok, params,
                detail=f"cover size {len(cover)}, exact antichain {size}",
                replay=["antichain", name, "--bound", str(bound), "--exact"],
            ))
            continue
        verdict = is_n_free(e, p.budget)
        if verdict.proved:
            ok = True
            missing = None
            for t in range(1, 7):
                if find_antichain_of_size(e, t, 10**5, p.budget) is None:
                    ok, missing = False, t
                    break
            cases.append(_case(
                "L5.3", name, ok, params,
                detail="antichains of sizes 1..6 found" if ok
                       else f"no antichain of size {missing}",
                replay=["antichain", name, "--bound", "100000", "--greedy"],
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
            ok = all(
                find_antichain_of_size(e, t, 10**5, p.budget) is not None
                for t in range(1, 5)
            )
            cases.append(_case(
                "T5.4ii", name, ok, {"filter": fname, "expression": render(e)},
                detail="antichains of sizes 1..4 found" if ok else "missing size",
                replay=["antichain", render(e), "--bound", "100000", "--greedy"],
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
        ok = True
        detail = ""
        for _ in range(6):
            w = lcm_extension(a, b, x, limit, p.budget)
            if w is None:
                ok, detail = False, f"no extension of X={x}"
                break
            inter = Inter(a, b)
            if not member(inter, w.value, max(p.budget, w.value)).proved:
                ok, detail = False, f"lcm {w.value} not in intersection"
                break
            if any(math.gcd(w.value, y) != 1 for y in x):
                ok, detail = False, f"lcm {w.value} not coprime to X={x}"
                break
            x.append(w.value)
        cases.append(_case(
            "T5.5", name, ok, params,
            detail=detail or f"grew X to {x}",
            replay=["member", render(Inter(a, b)), str(x[-1] if x else 1)],
        ))
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
            raise KeyError(lemma)
    cases: list[HarnessCase] = []
    for lemma in sorted(ids):
        cases.extend(_SUITES[lemma](params))
    return HarnessReport(tuple(cases), params.seed)
