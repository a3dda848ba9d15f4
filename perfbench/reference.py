"""A fixed pure-Python workload that gauges the host's current speed.

The benchmark's host is a shared VM whose speed swings by a quarter over
seconds to minutes: a fixed loop measured from 199 to 348 iterations per
second within one minute.  Every end-to-end timing the benchmark reports is
therefore normalized to a reference speed: it is scaled by REFERENCE_SECONDS
over the time this loop took around the same moment.  The loop runs no
convalloc code, so a change to convalloc cannot move it, and it does the
dictionary, tuple and integer work that dominates the solver.  On that host,
five runs of the same 250 Max-Min instances put their median solve time
within +-10% of each other as measured and within +-2.5% normalized.
"""

import gc
from time import perf_counter

# The loop's typical time on the host above, so normalized times stay close
# to wall times there.
REFERENCE_SECONDS = 0.0007


def reference_loop() -> int:
    table: dict[tuple[int, int, int], int] = {}
    for i in range(1500):
        key = (i & 7, i & 15, i >> 3)
        table[key] = table.get(key, 0) + i * i
    return len(table)


def time_reference() -> float:
    """The loop's time, with the garbage collector paused so that the size of
    the caller's heap cannot move it."""
    gc.disable()
    try:
        start = perf_counter()
        reference_loop()
        return perf_counter() - start
    finally:
        gc.enable()
