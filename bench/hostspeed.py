"""Correction of timings for the speed of a shared host.

On the 2-core host the benchmark was built on, the same single-threaded
Python code runs about 1.5x faster or slower from one stretch of seconds
or minutes to the next, as other tenants load the physical cores; whole
30 s runs land in one state or the other, which no statistic taken
within a run can undo. So the benchmark times a fixed pure-Python probe,
which runs no neurohash code, just before and just after each stretch of
work, and scales the work's time by REFERENCE_S over the probe's mean
time. The result is the time the work would have taken on a host where
the probe takes REFERENCE_S (about its typical time on that host): a
change to the program moves it as it moves the wall time, while a change
in host speed moves probe and work alike and largely cancels. The run
prints the uncorrected figures and the probe times next to it.

This module must import without neurohash: set-up interpreters use it.
"""

import time

REFERENCE_S = 0.005
_STEPS = 20000


def probe_seconds() -> float:
    """Wall time of a fixed loop of float division, compares and dict stores."""
    t0 = time.perf_counter()
    x = 0.1234
    q = 0.3
    for _ in range(_STEPS):
        x = x / q if x < q else (1.0 - x) / (1.0 - q)
        d = {}
        d[x] = 1
    return time.perf_counter() - t0


def factor(*probes) -> float:
    """Reference seconds per measured second, given probe times around the work."""
    return REFERENCE_S * len(probes) / sum(probes)
