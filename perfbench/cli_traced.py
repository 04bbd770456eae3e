"""`python -m divfilters.cli ARGS` with the span tracer installed.

Used for the traced run of the cli-cold workload. The CLI's own output goes
to stdout unchanged; the trace summary is the last line of stderr, after the
marker TRACE_MARKER, even when the CLI raises.
"""

from __future__ import annotations

import json
import os
import sys

from tracer import Tracer

TRACE_MARKER = "PERFBENCH_TRACE "


def main() -> int:
    from divfilters import arith, cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        summary = tracer.summary()
        summary["sieve_limit"] = arith._SIEVE.limit
        spans_path = os.environ.get("PERFBENCH_SPANS")
        if spans_path:
            tracer.write_spans(spans_path)
        sys.stdout.flush()
        print(TRACE_MARKER + json.dumps(summary), file=sys.stderr, flush=True)


if __name__ == "__main__":
    sys.exit(main())
