"""Span tracer installed around the public functions of each divfilters module.

A module binds a library function either as `module.func` or through
`from .other import func`, so `install` replaces the function in every
namespace of the package that binds it. `semantics._member`, the
evaluator's entry, is wrapped too: its recursive calls go through the module
global, so every evaluation is counted.

Every call is folded into per-function totals as it ends: a span's self time
is its duration minus the time covered by its child spans. The top of the
call tree (the benchmark's operations and the library calls they make) is
also kept span by span, up to KEEP_MAX spans, and written out when the run
ends. Deeper spans are only folded into the totals: one round makes millions
of them, too many to keep.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

LAYERS = ("arith", "setexpr", "semantics", "filters", "antichain", "chains",
          "corpus", "harness", "cli")
EVALUATOR = ("semantics", "_member")
KEEP_DEPTH = 2
KEEP_MAX = 100_000


class Tracer:
    def __init__(self):
        # one frame per open span: [time covered by children, span id]
        self._stack: list[list] = [[0.0, None]]
        self._next_id = 0
        self.functions: dict[str, list] = {}  # name -> [calls, self_s]
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.verdicts = [0]
        self.unknown_verdicts = [0]
        self._undo: list = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn, count_unknown: bool = False):
        """fn, recording a span named `name` around each call."""
        stack, spans = self._stack, self.spans
        totals = self.functions.setdefault(name, [0, 0.0])
        unknowns = self.unknown_verdicts
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, None]
            if len(stack) <= KEEP_DEPTH and len(spans) < KEEP_MAX:
                frame[1] = tracer._next_id
                tracer._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if count_unknown and result.state.value == "unknown-at-bound":
                    unknowns[0] += 1
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                totals[0] += 1
                totals[1] += duration - frame[0]
                if frame[1] is not None:
                    spans.append((frame[1], name, start, end, parent[1]))

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of every layer module, in every
        namespace of the package that binds it, and count Verdicts built."""
        package = importlib.import_module("divfilters")
        modules = {layer: importlib.import_module(f"divfilters.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if attr.startswith("_") and (layer, attr) != EVALUATOR:
                    continue
                wrappers[id(obj)] = self.wrap(
                    f"{layer}.{attr}", obj, count_unknown=(layer, attr) == EVALUATOR)
        namespaces = [package, *modules.values(),
                      importlib.import_module("divfilters.verdict")]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, obj))

        verdict_cls = importlib.import_module("divfilters.verdict").Verdict
        original_init = verdict_cls.__init__
        built = self.verdicts

        def counting_init(self, *args, **kwargs):
            built[0] += 1
            original_init(self, *args, **kwargs)

        verdict_cls.__init__ = counting_init
        self._undo.append((verdict_cls, "__init__", original_init))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def snapshot(self):
        """State to roll back to, so that an operation cut off by a time cap
        leaves no counts that depend on where the cap fell."""
        return ({k: list(v) for k, v in self.functions.items()},
                len(self.spans), self.verdicts[0], self.unknown_verdicts[0])

    def restore(self, state) -> None:
        functions, n_spans, verdicts, unknowns = state
        for name, totals in self.functions.items():
            totals[:] = functions.get(name, [0, 0.0])
        del self.spans[n_spans:]
        self.verdicts[0] = verdicts
        self.unknown_verdicts[0] = unknowns

    def summary(self) -> dict:
        """Counts and self times per layer, plus the evaluator counters."""
        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for name, (calls, self_s) in self.functions.items():
            layer = name.split(".", 1)[0]
            if layer in layers:
                layers[layer]["calls"] += calls
                layers[layer]["self_s"] += self_s
        return {
            "layers": layers,
            "member_evals": self.functions.get("semantics._member", [0])[0],
            "parse_calls": self.functions.get("setexpr.parse_expr", [0])[0],
            "unknown_verdicts": self.unknown_verdicts[0],
            "verdicts": self.verdicts[0],
            "spans_kept": len(self.spans),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent in self.spans:
                handle.write(json.dumps({"id": span_id, "name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")


def merge(summaries: list[dict]) -> dict:
    """Sum the summaries of several traced processes."""
    out = {"layers": {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS},
           "member_evals": 0, "parse_calls": 0, "unknown_verdicts": 0,
           "verdicts": 0, "spans_kept": 0}
    for summary in summaries:
        for layer, totals in summary["layers"].items():
            out["layers"][layer]["calls"] += totals["calls"]
            out["layers"][layer]["self_s"] += totals["self_s"]
        for key in ("member_evals", "parse_calls", "unknown_verdicts",
                    "verdicts", "spans_kept"):
            out[key] += summary[key]
    return out
