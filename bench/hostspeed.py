"""How fast the host ran during a run, from a fixed pure-Python loop.

On a shared host the speed of a vCPU drifts by 20-30% over tens of seconds
with other tenants' load, so two runs of the same code can differ by that
much.  The benchmark times this loop (about 15 ms) before and after every
timed process and between the calls of a library session, and multiplies its
reported times by scale(): NOMINAL_S over the run's median loop time.  The
result is the time the run would have taken on a host where the loop takes
NOMINAL_S.  A change to the program does not touch the loop, so the scaling
keeps every change's effect; the raw wall times are reported beside it.
"""

import statistics
import time

NOMINAL_S = 0.015
_ITERATIONS = 150_000


def loop_seconds() -> float:
    start = time.perf_counter()
    x = 0
    for i in range(_ITERATIONS):
        x += i * i % 7
    return time.perf_counter() - start


def scale(loops: list[float]) -> float:
    return NOMINAL_S / statistics.median(loops)
