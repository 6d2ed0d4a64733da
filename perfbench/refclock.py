"""Reference-speed scaling of wall times.

The shared 2-core box this benchmark was built on changes speed by up to
a third within a minute, for every piece of Python code alike (other
tenants share the cores; steal time stays near 1 %).  A fixed
pure-Python kernel, table look-ups and integer arithmetic like the
program's own inner loops, is timed before an op whenever the last sample
is older than ``INTERVAL_S`` and at the end of every round; a sample is the
fastest of ``REPEATS`` kernel runs, which drops runs hit by an interrupt.
Each op's wall time is multiplied by ``REFERENCE_S`` over the median of the
samples within ``WINDOW_S`` of the op, so a time reads as the wall time on a
core where the kernel takes exactly ``REFERENCE_S``.  Raw wall times are
printed on stderr beside the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

KERNEL_STEPS = 10000
REFERENCE_S = 1e-3
INTERVAL_S = 0.1
REPEATS = 3
WINDOW_S = 1.0

_TABLE = tuple(tuple((i * 7 + j * 3) % 11 for j in range(11)) for i in range(11))


def kernel(steps: int = KERNEL_STEPS) -> int:
    table, s = _TABLE, 0
    for i in range(steps):
        a = table[i % 11][s % 11]
        s = (table[a][i % 7] + s) & 1023
    return s


class ReferenceClock:
    """Kernel samples along the run, as (end time, duration) pairs."""

    def __init__(self):
        self.ends: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        best = None
        for _ in range(REPEATS):
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
            best = end - start if best is None else min(best, end - start)
        self.ends.append(end)
        self.durations.append(best)

    def sample_if_due(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] > INTERVAL_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Scale for an interval: the samples within ``WINDOW_S`` of it, or at
        least the nearest sample on each side."""
        lo = min(bisect.bisect_left(self.ends, start - WINDOW_S),
                 max(bisect.bisect_right(self.ends, start) - 1, 0))
        hi = max(bisect.bisect_right(self.ends, end + WINDOW_S),
                 bisect.bisect_left(self.ends, end) + 1)
        return REFERENCE_S / statistics.median(self.durations[lo:hi])
