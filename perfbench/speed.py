"""Machine speed, sampled while the benchmark runs.

On a shared 2-core virtual machine (Intel Xeon, Python 3.11) the same Python
code runs at speeds that differ by up to 40% over spans of seconds to
minutes (neighbours on the host), and the slowdown is the same for any
interpreter-bound work.  So the benchmark runs a fixed pure-Python kernel
between cases and scales the times of work done in Python to the reference
speed, at which the kernel takes REFERENCE_S: a time t measured while the
kernel took k is reported as t * REFERENCE_S / k, with k the median kernel
time within half a second of the measurement.  The raw times are reported
alongside.
"""

from __future__ import annotations

import bisect
import statistics
import time

REFERENCE_S = 0.0004  # kernel time at the reference speed
WINDOW_S = 0.5  # kernel samples this close to a measurement set its scale
INTERVAL_S = 0.05  # at most one kernel sample per interval between cases


def kernel() -> dict:
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return counts


class Speed:
    def __init__(self):
        self.times: list[float] = []
        self.seconds: list[float] = []
        self._next = 0.0

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            kernel()
            self.times.append(start)
            self.seconds.append(time.perf_counter() - start)

    def maybe_sample(self) -> None:
        """One sample, unless one was taken less than INTERVAL_S ago."""
        now = time.perf_counter()
        if now >= self._next:
            self.sample()
            self._next = now + INTERVAL_S

    def scale(self, start: float, end: float | None = None) -> float:
        """REFERENCE_S over the median kernel time near [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, (start if end is None else end) + WINDOW_S)
        near = self.seconds[lo:hi] or self.seconds
        return REFERENCE_S / statistics.median(near)
