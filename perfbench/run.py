"""divfilters benchmark: corpus-scan, harness and cli-cold.

    python3 perfbench/run.py --workload corpus-scan --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ./src. The run
repeats whole rounds of its workload until --seconds have passed, checks
every answer against perfbench/oracle.py (a model that shares no code with
the library), prints one `metric` line per figure, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 the run
makes one untraced and one traced round and reports the per-layer ones.
See perfbench/README.md for the workloads, the metrics and the kept failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import oracle
import speed
import tracer
from cli_traced import TRACE_MARKER

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
PYTHON = sys.executable
L = 10**4
WORKER_CAP_S = 170.0
SETUPS_PER_RUN = 9
INTERP_PROBES = 5
LEMMA_IDS = ("E3.5b", "L2.1a", "L2.1b", "L3.4-eq3", "L3.7", "L5.3", "T2.2",
             "T3.3", "T4.2", "T5.4ii", "T5.5")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import divfilters.cli; "
                "print(time.perf_counter() - t)")


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a wrong answer)."""


# --- child processes -------------------------------------------------------

@dataclass
class Child:
    returncode: int | None  # None: stopped at its time cap
    stdout: str
    stderr: str
    started: float  # perf_counter() just before the process was made
    seconds: float
    first_line_s: float | None  # when the first stdout line arrived
    rss_kb: int


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], cap: float, stdin: bytes = b"") -> Child:
    """Run argv to its end or to `cap` seconds, whichever is first; the child
    is always reaped, with its own resource usage."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=child_env(), cwd=ROOT)
    out, err = bytearray(), bytearray()
    first_line = None
    timed_out = finished = False
    try:
        try:
            proc.stdin.write(stdin)
            proc.stdin.close()
        except BrokenPipeError:
            pass
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ, out)
            sel.register(proc.stderr, selectors.EVENT_READ, err)
            deadline = start + cap
            while sel.get_map() and not timed_out:
                remaining = deadline - time.perf_counter()
                timed_out = remaining <= 0
                for key, _ in sel.select(max(remaining, 0)):
                    chunk = os.read(key.fd, 1 << 16)
                    if not chunk:
                        sel.unregister(key.fileobj)
                        continue
                    key.data.extend(chunk)
                    if first_line is None and key.data is out and b"\n" in chunk:
                        first_line = time.perf_counter() - start
        finished = True
    finally:
        if timed_out or not finished:
            proc.kill()
        # wait4, not Popen.wait, so that the child's own peak RSS is known
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    seconds = time.perf_counter() - start
    return Child(None if timed_out else proc.returncode, out.decode(), err.decode(),
                 start, seconds, first_line, usage.ru_maxrss)


def run_worker(request: dict) -> tuple[float, dict]:
    """One fresh interpreter: its corrected set-up time, and its round (only
    the reference samples when setup_only). Each operation of the round gets
    `adjusted`, its time corrected for the machine's speed."""
    child = run_child([PYTHON, os.path.join(HERE, "worker.py")], WORKER_CAP_S,
                      json.dumps(request).encode())
    lines = child.stdout.splitlines()
    if child.returncode != 0 or len(lines) < 2 or lines[0] != "ready":
        raise BenchError(f"worker exited {child.returncode}: {child.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["ops"] = [json.loads(line) for line in lines[1:-1]]
    for op in ok_ops(result):
        op["adjusted"] = speed.corrected(result["samples"], op["start"], op["seconds"])
    return speed.corrected(result["samples"], child.started, child.first_line_s), result


def median(values):
    return statistics.median(values) if values else 0.0


# --- checks ----------------------------------------------------------------

def pairwise_coprime(xs) -> bool:
    xs = list(xs)
    return all(math.gcd(a, b) == 1 for i, a in enumerate(xs) for b in xs[i + 1:])


def greedy_antichain(members: set[int]) -> int:
    chosen, product = 0, 1
    for m in sorted(members):
        if math.gcd(m, product) == 1:
            chosen += 1
            product *= m
    return chosen


def closed_under_multiples(members: set[int], bound: int) -> bool:
    return all(k in members for m in members for k in range(2 * m, bound + 1, m))


def covers_all(covers, members) -> bool:
    return all(any(m % c == 0 for c in covers) for m in members)


def no_cover_exists(members: set[int], k_max: int, n_max: int) -> bool:
    if 1 in members or greedy_antichain(members) > k_max:
        return True
    ordered = sorted(members)
    return not any(covers_all(combo, ordered)
                   for k in range(1, k_max + 1)
                   for combo in combinations(range(2, n_max + 1), k))


class Checker:
    """Collects check failures; the run is correct when there are none."""

    def __init__(self):
        self.problems: list[str] = []
        self._oracle: dict[str, set[int]] = {}

    def members(self, text: str) -> set[int]:
        if text not in self._oracle:
            self._oracle[text] = oracle.oracle_set(text, L)
        return self._oracle[text]

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def corpus_op(self, op: dict) -> None:
        text, kind = op["subject"], op["kind"]
        if kind == "roundtrip":
            self.expect(op["render"] == text and op["equal"], f"round trip of {text}")
            return
        s = self.members(text)
        where = f"{kind} {text}"
        if kind == "enumerate":
            got = op["members"]
            self.expect(got == sorted(set(got)), f"{where}: not ascending")
            if op["complete"]:
                self.expect(set(got) == s, f"{where}: differs from the oracle")
            else:
                self.expect(set(got) <= s and "down(" in text,
                            f"{where}: incomplete enumeration not explained by down")
        elif kind == "upclosed":
            state, cert = op["state"], op["certificate"]
            if state == "refuted":
                m, km = cert
                self.expect(m in s and km not in s and km % m == 0 and km <= L,
                            f"{where}: bad refutation pair {cert}")
            elif state == "proved" or "down(" not in text:
                self.expect(closed_under_multiples(s, L),
                            f"{where}: {state}, but a multiple leaves the set")
        elif kind == "nfree":
            state, cert = op["state"], op["certificate"]
            if state == "refuted":
                covers = cert["covers"]
                self.expect(min(covers) >= 2 and covers_all(covers, s),
                            f"{where}: certificate cover misses a member")
            elif state == "proved":
                sample = cert["sample"]
                self.expect(set(sample) <= s and pairwise_coprime(sample),
                            f"{where}: bad antichain sample")
            else:
                largest = cert["largest_antichain"]
                self.expect(set(largest) <= s and pairwise_coprime(largest),
                            f"{where}: bad antichain evidence")
                if cert["best_cover"] is not None:
                    self.expect(covers_all(cert["best_cover"], {m for m in s if m <= 10**3}),
                                f"{where}: bad best cover")
        elif kind == "antichain":
            witness = op["witness"]
            self.expect(len(witness) == op["size"] and set(witness) <= s
                        and pairwise_coprime(witness), f"{where}: bad witness")
            self.expect(op["size"] >= greedy_antichain(s), f"{where}: below greedy")
            cover = op["syntactic_cover"]
            if cover is not None:
                self.expect(op["size"] <= len(cover), f"{where}: above the cover size")
        elif kind == "cover":
            covers = op["covers"]
            if covers is None:
                self.expect(no_cover_exists(s, 3, 50), f"{where}: a cover exists")
            else:
                self.expect(len(covers) <= 3 and all(2 <= c <= 50 for c in covers)
                            and covers_all(covers, s), f"{where}: bad cover {covers}")

    def harness_op(self, op: dict) -> None:
        lemma = op["subject"]
        self.expect(op["lemmas"] == [lemma] and op["counts"]["fail"] == 0
                    and op["counts"]["pass"] >= 1 and not op["failing"],
                    f"suite {lemma}: {op['counts']} failing {op['failing']}")


# --- in-process workloads --------------------------------------------------

def ok_ops(result: dict) -> list[dict]:
    return [op for op in result["ops"] if "failed" not in op]


def round_seconds(result: dict, kinds=None, key: str = "adjusted") -> float:
    return sum(op[key] for op in ok_ops(result) if kinds is None or op["kind"] in kinds)


def user_op_seconds(workload: str, result: dict) -> list[float]:
    """Latency of each user-level operation of a round: the analysis of one
    corpus expression, or one full harness run."""
    if workload == "harness":
        return [round_seconds(result)]
    totals: dict[str, float] = {}
    for op in ok_ops(result):
        totals[op["subject"]] = totals.get(op["subject"], 0.0) + op["adjusted"]
    return list(totals.values())


QUERY_KINDS = ("upclosed", "infinite", "nfree")
SOLVER_KINDS = ("antichain", "cover")


def in_process_details(workload: str, results: list[dict]) -> dict:
    """The workload's own figures (README), medians over the rounds."""
    if workload == "corpus-scan":
        points = sum(op["points"] for r in results for op in ok_ops(r)
                     if op["kind"] == "enumerate")
        enum_s = sum(round_seconds(r, ("enumerate",)) for r in results)
        return {
            "corpus.points_per_s": (points / enum_s, "points/s"),
            "corpus.queries_s": (median([round_seconds(r, QUERY_KINDS) for r in results]), "s"),
            "corpus.solver_s": (median([round_seconds(r, SOLVER_KINDS) for r in results]), "s"),
        }
    out = {"harness_s": (median([round_seconds(r) for r in results]), "s")}
    for lemma in LEMMA_IDS:
        out[f"harness.{lemma}_s"] = (median(
            [op["adjusted"] for r in results for op in ok_ops(r) if op["subject"] == lemma]), "s")
    return out


def in_process(args, checker: Checker) -> tuple[dict, dict, list[dict]]:
    request = {"workload": args.workload, "seed": args.seed, "trace": False}
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
    setups, results = [], []
    start = time.perf_counter()
    while True:
        # a traced run is one untraced round, for the overhead, then one traced
        traced = bool(args.trace) and len(results) == 1
        if traced:
            os.makedirs(OUT_DIR, exist_ok=True)
        setup_s, result = run_worker(
            dict(request, trace=True, spans_path=spans_path) if traced else request)
        setups.append(setup_s)
        results.append(result)
        if len(results) == 2 if args.trace else time.perf_counter() - start >= args.seconds:
            break
    while len(setups) < SETUPS_PER_RUN:
        setups.append(run_worker(dict(request, setup_only=True))[0])

    for result in results:
        for op in ok_ops(result):
            if args.workload == "corpus-scan":
                checker.corpus_op(op)
            else:
                checker.harness_op(op)
    if args.workload == "harness":
        for result in results:
            ran = {op["subject"] for op in result["ops"]}
            checker.expect(set(LEMMA_IDS) <= ran, f"suites missing: {set(LEMMA_IDS) - ran}")

    untraced = results[:1] if args.trace else results
    end_to_end = {
        "setup_s": (median(setups), "s"),
        "round_s": (median([round_seconds(r) for r in untraced]), "s"),
        "op_p50_ms": (1000 * median([s for r in untraced
                                      for s in user_op_seconds(args.workload, r)]), "ms"),
        "peak_rss_mb": (median([r["rss_kb"] for r in untraced]) / 1024, "MB"),
    }
    details = in_process_details(args.workload, untraced)
    details["round_s.raw"] = (median([round_seconds(r, key="seconds") for r in untraced]), "s")
    if not args.trace:
        return end_to_end, details, results
    traced_result = results[1]
    layers = layer_metrics(traced_result["trace"], traced_result["sieve_limit"])
    layers.update(details)
    layers["trace.overhead_pct"] = (
        100 * (round_seconds(traced_result) / round_seconds(results[0]) - 1), "%")
    return end_to_end, layers, results


# --- cli-cold --------------------------------------------------------------

@dataclass
class Query:
    group: str  # light | sieve | heavy | fault
    argv: list[str]
    check: Callable[[int, dict], str | None]  # (exit code, payload) -> problem
    cap: float = 60.0
    usage_ok: bool = False  # exit 64 without payload is a right answer


def _verdict(rc: int, payload: dict, proved: bool) -> str | None:
    want = (0, "proved") if proved else (1, "refuted")
    if (rc, payload.get("state")) != want:
        return f"exit {rc} state {payload.get('state')}, expected {want}"
    return None


def _factor_check(n: int):
    def check(rc, payload):
        got = {int(p): k for p, k in payload["factors"].items()}
        return None if rc == 0 and got == oracle.factor(n) else f"got {got}"
    return check


def _upclosed_check(text: str, proved: bool):
    def check(rc, payload):
        problem = _verdict(rc, payload, proved)
        if problem:
            return problem
        s = oracle.oracle_set(text, L)
        if proved:
            return None if closed_under_multiples(s, L) else "a multiple leaves the set"
        m, km = payload["certificate"]
        return None if m in s and km not in s and km % m == 0 else f"bad pair {m}, {km}"
    return check


def _chain_check(k: int):
    def check(rc, payload):
        pairs = payload.get("pairs", [])
        kinds = [p["expectation"] for p in pairs]
        half = k * (k + 1) // 2
        ok = (rc == 0 and payload.get("passed") is True and all(p["ok"] for p in pairs)
              and kinds.count("divides") == half and kinds.count("omits") == half)
        return None if ok else f"exit {rc}, {len(pairs)} pairs"
    return check


def _random_odd(rng, lo, hi, prime: bool) -> int:
    """An odd number in [lo, hi], prime or composite as asked."""
    while True:
        n = rng.randrange(lo, hi) | 1
        if oracle.is_prime(n) == prime:
            return n


def cli_queries(seed: int) -> list[Query]:
    """The query set of one round; arguments come from the seed only."""
    rng = random.Random(seed)
    qs: list[Query] = []
    # light: no sieve growth past the initial 2**10, so start-up dominates
    n = rng.randint(2, 1024)
    qs.append(Query("light", ["factor", str(n)], _factor_check(n)))
    m = rng.randint(1, L)
    qs.append(Query("light", ["member", "mult(6)", str(m)],
                    lambda rc, p, m=m: _verdict(rc, p, m % 6 == 0)))
    m = rng.randint(2, 1024)
    qs.append(Query("light", ["member", "level(2)", str(m)],
                    lambda rc, p, m=m: _verdict(rc, p, sum(oracle.factor(m).values()) == 2)))
    a, b = sorted(rng.sample(range(2, 100), 2))
    up_text, lit_text = f"up({{{a},{b}}})", f"{{{a},{b}}}"
    qs.append(Query("light", ["upclosed", up_text], _upclosed_check(up_text, True)))
    qs.append(Query("light", ["upclosed", lit_text], _upclosed_check(lit_text, False)))
    f = rng.randint(1, 30)
    g = f * rng.randint(1, 30) if rng.random() < 0.5 else rng.randint(1, 900)
    qs.append(Query("light", ["divides", f"principal:{f}", f"principal:{g}"],
                    lambda rc, p, f=f, g=g: _verdict(rc, p, g % f == 0)))
    a, b = rng.sample(range(2, 31), 2)
    union_text = f"union(mult({a}),mult({b}))"
    m = rng.randint(1, L)
    qs.append(Query("light", ["member", union_text, str(m)],
                    lambda rc, p, m=m: _verdict(rc, p, m % a == 0 or m % b == 0)))

    def nfree_check(rc, payload):
        # a cover is valid iff it divides both generators; they are members
        covers = payload.get("certificate", {}).get("covers", [])
        ok = (_verdict(rc, payload, False) is None and min(covers, default=1) >= 2
              and all(any(x % c == 0 for c in covers) for x in (a, b)))
        return None if ok else f"exit {rc}, covers {covers}"

    qs.append(Query("light", ["nfree", union_text], nfree_check))
    n, k, m = rng.randint(2, 60), rng.randint(1, 30), rng.randint(1, L)
    qs.append(Query("light", ["member", f"quot(mult({n}),{k})", str(m)],
                    lambda rc, p, n=n, k=k, m=m: _verdict(rc, p, m * k % n == 0)))
    # sieve-cold: each process grows the sieve past 2**19 again
    p = _random_odd(rng, 2**19 + 1, 10**6, True)
    qs.append(Query("sieve", ["member", "P", str(p)], lambda rc, pl: _verdict(rc, pl, True)))
    c = _random_odd(rng, 2**19 + 1, 10**6, False)
    qs.append(Query("sieve", ["member", "P", str(c)], lambda rc, pl: _verdict(rc, pl, False)))
    n = rng.randint(2**19 + 1, 10**6)
    qs.append(Query("sieve", ["factor", str(n)], _factor_check(n)))
    # heavy: fixed, the same on every seed
    heavy_text = "level(2)"

    def enumerate_check(rc, payload):
        ok = (rc == 0 and payload["complete"] is True
              and payload["members"] == sorted(oracle.oracle_set(heavy_text, L)))
        return None if ok else "enumerate differs from the oracle"

    qs.append(Query("heavy", ["enumerate", heavy_text, "--bound", str(L)], enumerate_check))
    qs.append(Query("heavy", ["chain-verify", "12"], _chain_check(12)))

    def harness_check(rc, payload):
        ok = (rc == 0 and payload["passed"] is True and payload["counts"]["fail"] == 0
              and {c["lemma_id"] for c in payload["cases"]} == {"T3.3"})
        return None if ok else f"counts {payload.get('counts')}"

    qs.append(Query("heavy", ["harness", "T3.3"], harness_check))
    # kept failures (README): fixed inputs that fail on every run today
    big = 10**400 + 1
    qs.append(Query("fault", ["member", "pow(P,3)", str(big)],
                    lambda rc, p: _verdict(rc, p, oracle.icbrt(big) ** 3 == big)))
    qs.append(Query("fault", ["member", "comp(" * 1200 + "N" + ")" * 1200, "3"],
                    lambda rc, p: _verdict(rc, p, True), usage_ok=True))
    qs.append(Query("fault", ["chain-verify", "10", "--scheme", "tree"], _chain_check(10)))

    def product_check(rc, payload):
        state = {0: "proved", 2: "unknown-at-bound"}.get(rc)
        return None if state and payload.get("state") == state else f"exit {rc}"

    qs.append(Query("fault", ["product-member", "gen:[mult(2)]", "gen:[mult(3)]",
                              "comp({5})"], product_check, cap=1.0))
    return qs


def run_query(q: Query, traced: bool, checker: Checker) -> dict:
    if traced:
        argv = [PYTHON, os.path.join(HERE, "cli_traced.py"), *q.argv, "--json"]
    else:
        argv = [PYTHON, "-m", "divfilters.cli", *q.argv, "--json"]
    child = run_child(argv, q.cap)
    op = {"group": q.group, "subject": " ".join(q.argv)[:60], "start": child.started,
          "seconds": child.seconds, "rss_kb": child.rss_kb}
    if traced:
        marked = [line for line in child.stderr.splitlines() if line.startswith(TRACE_MARKER)]
        op["trace"] = json.loads(marked[-1][len(TRACE_MARKER):]) if marked else None
    if child.returncode is None:
        op["failed"] = f"no answer within the {q.cap:g} s cap"
        return op
    if child.returncode == 64 and q.usage_ok:
        return op
    try:
        payload = json.loads(child.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        op["failed"] = f"exit {child.returncode} without a JSON answer"
        return op
    problem = q.check(child.returncode, payload)
    checker.expect(problem is None, f"{' '.join(q.argv)[:80]}: {problem}")
    return op


def probe_seconds(code: str) -> float:
    """Run `python -c code` in a fresh process: the float it prints, or its
    wall time when it prints nothing, corrected for the machine's speed."""
    samples = [speed.sample()]
    child = run_child([PYTHON, "-c", code], 60.0)
    samples.append(speed.sample())
    if child.returncode != 0:
        raise BenchError(f"probe failed: {child.stderr[-2000:]}")
    raw = float(child.stdout) if child.stdout.strip() else child.seconds
    return speed.corrected(samples, child.started, raw)


def cli_cold(args, checker: Checker) -> tuple[dict, dict, list[dict]]:
    queries = cli_queries(args.seed)
    order_rng = random.Random(args.seed)
    rounds: list[list[dict]] = []
    imports, samples = [], []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) == 1
        order = list(queries)
        order_rng.shuffle(order)
        ops = []
        for q in order:
            samples.append(speed.sample())
            ops.append(run_query(q, traced, checker))
        rounds.append(ops)
        imports.append(probe_seconds(IMPORT_PROBE))
        if len(rounds) == 2 if args.trace else time.perf_counter() - start >= args.seconds:
            break
    while len(imports) < SETUPS_PER_RUN:
        imports.append(probe_seconds(IMPORT_PROBE))

    samples.append(speed.sample())
    for op in (op for r in rounds for op in r if "failed" not in op):
        op["adjusted"] = speed.corrected(samples, op["start"], op["seconds"])
    untraced = rounds[:1] if args.trace else rounds

    def ok(ops, group=None, key="adjusted"):
        return [op[key] for op in ops
                if "failed" not in op and (group is None or op["group"] == group)]

    end_to_end = {
        "setup_s": (median(imports), "s"),
        "round_s": (median([sum(ok(r)) for r in untraced]), "s"),
        "op_p50_ms": (1000 * median([s for r in untraced for s in ok(r)]), "ms"),
        "peak_rss_mb": (max(op["rss_kb"] for r in untraced for op in r
                            if "failed" not in op) / 1024, "MB"),
    }
    details = {f"cli.{g}_p50_ms": (1000 * median([s for r in untraced for s in ok(r, g)]), "ms")
               for g in ("light", "sieve", "heavy")}
    details["round_s.raw"] = (median([sum(ok(r, key="seconds")) for r in untraced]), "s")
    if not args.trace:
        return end_to_end, details, rounds
    summaries = [op["trace"] for op in rounds[1] if "failed" not in op and op.get("trace")]
    layers = layer_metrics(tracer.merge(summaries),
                           max(s["sieve_limit"] for s in summaries))
    layers.update(details)
    layers["trace.overhead_pct"] = (100 * (sum(ok(rounds[1])) / sum(ok(rounds[0])) - 1), "%")
    return end_to_end, layers, rounds


# --- per-layer metrics -----------------------------------------------------

def layer_metrics(summary: dict, sieve_limit: int) -> dict:
    """Per-layer figures from a trace summary, plus the start-up floor
    measured in fresh processes."""
    layers = summary["layers"]
    return {
        "semantics.member_evals": (summary["member_evals"], "count"),
        "semantics.self_s": (layers["semantics"]["self_s"], "s"),
        "semantics.unknown_verdicts": (summary["unknown_verdicts"], "count"),
        "arith.calls": (layers["arith"]["calls"], "count"),
        "arith.self_s": (layers["arith"]["self_s"], "s"),
        "arith.sieve_limit": (sieve_limit, "count"),
        "filters.calls": (layers["filters"]["calls"], "count"),
        "filters.self_s": (layers["filters"]["self_s"], "s"),
        "verdict.constructed": (summary["verdicts"], "count"),
        "antichain.calls": (layers["antichain"]["calls"], "count"),
        "antichain.self_s": (layers["antichain"]["self_s"], "s"),
        "chains.self_s": (layers["chains"]["self_s"], "s"),
        "setexpr.parse_calls": (summary["parse_calls"], "count"),
        "setexpr.self_s": (layers["setexpr"]["self_s"], "s"),
        "cli.import_ms": (1000 * median([probe_seconds(IMPORT_PROBE)
                                         for _ in range(INTERP_PROBES)]), "ms"),
        "cli.interp_ms": (1000 * median([probe_seconds("pass")
                                         for _ in range(INTERP_PROBES)]), "ms"),
    }


# --- main ------------------------------------------------------------------

WORKLOADS = ("corpus-scan", "harness", "cli-cold")


def load_metric_units() -> tuple[dict, dict]:
    """name -> unit of the end-to-end and of the per-layer metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "divfilters", "cli.py")):
        print("no divfilters sources under ./src: run from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        # one CPU for every process of the run, so that the reference loop of
        # speed.py runs where the timed work runs
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
    build = run_child([PYTHON, "-m", "compileall", "-q", SRC, HERE], 300.0)
    if build.returncode != 0:
        print(f"byte-compiling failed: {build.stderr}", file=sys.stderr)
        return 2

    checker = Checker()
    try:
        if args.workload == "cli-cold":
            end_to_end, extra, rounds = cli_cold(args, checker)
            ops = [op for r in rounds for op in r]
        else:
            end_to_end, extra, rounds = in_process(args, checker)
            ops = [op for r in rounds for op in r["ops"]]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    e2e_units, layer_units = load_metric_units()
    measured = extra if args.trace else end_to_end
    # a per-layer figure of another workload (a harness suite on corpus-scan,
    # say) reads 0: that layer does no work here
    metrics = {name: {"value": measured.get(name, (0, unit))[0], "unit": unit}
               for name, unit in (layer_units if args.trace else e2e_units).items()}
    for name, (value, unit) in {**end_to_end, **extra}.items():
        print(f"metric {args.workload} {name} {value:.6g} {unit}")
    failed = [op for op in ops if "failed" in op]
    for op in failed[:8]:
        print(f"failed {op.get('kind', op.get('group'))} {op.get('subject', '')}: "
              f"{op['failed']}")
    for problem in checker.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"ops {args.workload} attempted {len(ops)} failed {len(failed)} "
          f"rounds {len(rounds)}")
    print(json.dumps({"correct": not checker.problems, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
