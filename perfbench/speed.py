"""Machine-speed correction for the benchmark's timings.

On a shared 2-vCPU virtual machine the speed drifts: a fixed pure-Python
loop took from 0.74 to 1.19 times its median over 10-20 s periods, and whole
runs of identical work differed by 45% a few minutes apart. A run of 30-45 s
cannot average that out, so every timing is corrected by the loop below.

The loop is timed often during a run, from the same process or the one that
waits for the timed child. A timing over [start, start + seconds] is
multiplied by NOMINAL_S divided by the median of the loop's samples near that
interval. That is the time the operation would have taken had the loop taken
NOMINAL_S, about its time on that machine at its usual speed. The loop does
not touch the library, so a change to the library moves the corrected times
as it moves the raw ones; the raw times are printed too.
"""

from __future__ import annotations

import statistics
import time

LOOP_ITERATIONS = 80_000
NOMINAL_S = 0.005
EVERY_S = 0.2  # least time between two samples in a worker
WINDOW_S = 2.0  # samples this far from the interval count as "near"


def sample() -> tuple[float, float]:
    """(midpoint, duration) of one run of the reference loop."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i % 7
    end = time.perf_counter()
    return (start + end) / 2, end - start


def corrected(samples: list[tuple[float, float]], start: float, seconds: float) -> float:
    """`seconds`, measured from `start`, at the loop's nominal speed."""
    middle, reach = start + seconds / 2, seconds / 2 + WINDOW_S
    near = [d for t, d in samples if abs(t - middle) <= reach]
    if len(near) < 3:
        near = [d for _, d in sorted(samples, key=lambda s: abs(s[0] - middle))[:3]]
    return seconds * NOMINAL_S / statistics.median(near)
