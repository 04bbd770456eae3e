"""One round of an in-process workload, in a fresh interpreter.

Reads a JSON request on stdin, sets the library up as a user's session would
(import, bundled corpus, default filters, sieve warm-up to L), prints
`ready`, then runs one round of the workload. It prints one JSON line per
operation, with its start, time and output, as soon as the operation ends,
so that the worker's peak RSS is the library's and not that of collected
outputs. A last JSON line carries the peak RSS, the sieve size, the samples
of the reference loop (speed.py) taken between operations and, in a traced
round, the trace summary. Checks are made by the parent, not here.

Every operation runs under a time cap (signal.setitimer). An operation that
raises or reaches its cap is reported as failed, with its time left out.
"""

from __future__ import annotations

import json
import random
import resource
import signal
import sys
import time

import speed

L = 10**4
OP_CAP_S = 60.0
# exact antichain has no work bound on these two; see README "Kept failures"
KNOWN_CAP_S = 1.0
CAPPED_ANTICHAIN = ("prodset(P,P)", "up(primesIdx(1,2))")
COVER_K_MAX, COVER_N_MAX = 3, 50


class _CapReached(Exception):
    pass


def _on_alarm(signum, frame):
    raise _CapReached()


class Round:
    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples = [speed.sample()]

    def run(self, kind: str, subject: str, fn, describe, cap: float = OP_CAP_S) -> dict:
        """Time fn() under a cap, print the operation with describe(value)
        when it did not fail, and return it."""
        if time.perf_counter() - self.samples[-1][0] >= speed.EVERY_S:
            self.samples.append(speed.sample())
        op = {"kind": kind, "subject": subject}
        saved = self.tracer.snapshot() if self.tracer else None
        if self.tracer:
            fn = self.tracer.wrap(f"bench.{kind}", fn)
        signal.setitimer(signal.ITIMER_REAL, cap)
        start = time.perf_counter()
        try:
            value = fn()
            op["start"], op["seconds"] = start, time.perf_counter() - start
        except _CapReached:
            op["failed"] = f"no answer within the {cap:g} s cap"
        except Exception as exc:  # any library error ends this operation only
            op["failed"] = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if "failed" in op:
            if saved is not None:
                # counts made before the cap fell would vary from run to run
                self.tracer.restore(saved)
        else:
            op.update(describe(value))
        print(json.dumps(op))
        return op


def _state(verdict) -> dict:
    return {"state": verdict.state.value}


def _state_and_certificate(verdict) -> dict:
    return {"state": verdict.state.value, "certificate": _jsonable(verdict.certificate)}


def _jsonable(cert):
    if cert is None or isinstance(cert, (str, int)):
        return cert
    if isinstance(cert, (tuple, list, set, frozenset)):
        return sorted(cert) if isinstance(cert, (set, frozenset)) else list(cert)
    if isinstance(cert, dict):
        return {k: _jsonable(v) for k, v in cert.items()}
    if hasattr(cert, "covers"):
        return {"covers": sorted(cert.covers), "structural": cert.structural}
    return repr(cert)


def corpus_round(df, corpus, seed: int, rnd: Round) -> None:
    order = list(range(len(corpus)))
    random.Random(seed).shuffle(order)
    for index in order:
        e = corpus[index]
        text = df.render(e)

        def roundtrip():
            again = df.parse_expr(df.render(e))
            return df.render(again), again == e

        rnd.run("roundtrip", text, roundtrip, lambda v: {"render": v[0], "equal": v[1]})
        complete = rnd.run("enumerate", text, lambda: df.enumerate_upto(e, L, L),
                           lambda v: {"members": v[0], "complete": v[1], "points": L}
                           ).get("complete")
        rnd.run("upclosed", text, lambda: df.is_upward_closed(e, L), _state_and_certificate)
        rnd.run("infinite", text, lambda: df.is_infinite(e, L), _state)
        rnd.run("nfree", text, lambda: df.is_n_free(e, L), _state_and_certificate)

        cover = df.semantics.syntactic_cover(e)
        if complete:
            rnd.run("antichain", text,
                    lambda: df.max_strong_antichain(e, L, mode="exact", budget=L),
                    lambda v: {"size": v[0], "witness": list(v[1].witness),
                               "syntactic_cover": None if cover is None else sorted(cover)},
                    KNOWN_CAP_S if text in CAPPED_ANTICHAIN else OP_CAP_S)
        if cover is not None:
            rnd.run("cover", text,
                    lambda: df.covering_witness(e, COVER_K_MAX, COVER_N_MAX, L, L),
                    lambda v: {"covers": None if v is None else sorted(v.covers)})


def harness_round(df, rnd: Round) -> None:
    params = df.HarnessParams()
    for lemma in sorted(df.LEMMA_IDS):
        rnd.run("suite", lemma, lambda: df.run_harness([lemma], params),
                lambda report: {
                    "counts": report.counts,
                    "lemmas": sorted({c.lemma_id for c in report.cases}),
                    "failing": [c.case_id for c in report.cases if c.outcome == "fail"]})


def main() -> int:
    request = json.loads(sys.stdin.read())
    import divfilters as df
    from divfilters import arith

    corpus = df.load_corpus()
    df.default_filters()
    arith.primes_upto(L)
    print("ready", flush=True)
    if request.get("setup_only"):
        print(json.dumps({"samples": [speed.sample() for _ in range(3)]}))
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = None
    if request["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    rnd = Round(tracer)
    if request["workload"] == "corpus-scan":
        corpus_round(df, corpus, request["seed"], rnd)
    else:
        harness_round(df, rnd)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rnd.samples.append(speed.sample())
    result = {"rss_kb": rss_kb, "sieve_limit": arith._SIEVE.limit,
              "samples": rnd.samples}
    if tracer:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        if request.get("spans_path"):
            tracer.write_spans(request["spans_path"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
