"""Machine-speed probe: scales wall times so that a shared host's speed swings cancel.

Where the cores are shared with other tenants, one core's speed flips
between states that last seconds: on a 2-vCPU Xeon host under CPython 3.11,
a fixed loop and the v22 jobs both ran at about 0.7x or 1.3x their median,
switching every few seconds, so that ten runs of the same code spread by a
third in jobs per second.  The benchmark therefore runs a fixed pure-Python
probe, which calls no triforms code, between jobs (no more often than every
PROBE_EVERY_S) and outside their timed spans, and scales each job's wall
time by PROBE_REF_S / (median time of the probes just around it).  A change
to triforms moves the job times but not the probe times, so it shows in
full; a change of the host's speed moves both, and cancels.  The unscaled
wall times are reported beside the scaled ones.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

# About what one probe takes on the host above in its fast state, so the
# scaled times read close to that host's wall-clock times when it is quiet.
PROBE_REF_S = 3.0e-4
PROBE_EVERY_S = 0.02
PROBE_SIDE = 2  # probes taken on each side of a job to scale it
PROBE_LOOPS = 1200


def _probe_work() -> int:
    # small tuples as dict keys and int arithmetic, as in triforms' sparse
    # polynomials, so that the probe slows with the host as the library does
    counts: dict = {}
    for i in range(PROBE_LOOPS):
        key = (i % 7, i % 11, i % 13)
        counts[key] = counts.get(key, 0) + i * i
    return len(counts)


def probe() -> float:
    """Wall time of one probe, in seconds."""
    start = perf_counter()
    _probe_work()
    return perf_counter() - start


class SpeedTrack:
    """Probe times along a run, and the scaling of job times by them."""

    def __init__(self):
        self.times: list[float] = []  # when each probe ended
        self.durations: list[float] = []

    def tick(self, force: bool = False) -> None:
        """Probe if PROBE_EVERY_S has passed since the last probe."""
        if force or not self.times or perf_counter() - self.times[-1] >= PROBE_EVERY_S:
            duration = probe()
            self.times.append(perf_counter())
            self.durations.append(duration)

    def factor(self, start: float, end: float) -> float:
        """PROBE_REF_S over the median of the PROBE_SIDE probes before
        ``start`` and the PROBE_SIDE probes after ``end``."""
        lo = max(0, bisect_left(self.times, start) - PROBE_SIDE)
        hi = bisect_right(self.times, end) + PROBE_SIDE
        return PROBE_REF_S / statistics.median(self.durations[lo:hi])

    def recent_factor(self) -> float:
        """PROBE_REF_S over the median of the last 2 * PROBE_SIDE probes."""
        return PROBE_REF_S / statistics.median(self.durations[-2 * PROBE_SIDE:])

    def scaled(self, starts: list[float], latencies: list[float]) -> list[float]:
        return [
            latency * self.factor(start, start + latency)
            for start, latency in zip(starts, latencies)
        ]
