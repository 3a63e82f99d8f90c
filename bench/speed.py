"""Machine-speed sampling, so timings can be read at a fixed reference speed.

The machines the benchmark runs on are shared: a fixed loop of Python
work takes anything from 1x to 2x its best time from one second to the
next, and whole minutes run fast or slow with the neighbours' load.
Process CPU time moves with wall time, so it does not help.  What does
help is a yardstick: a fixed kernel of Python dict, tuple, frozenset and
str work that is not part of nclobber, timed every INTERVAL_S between
requests (or from a SIGALRM handler during a long call), so that it
meets the same machine speed as the program around it.

A timing is reported at reference speed: multiplied by the mean of
REF_S / kernel time over the samples taken while it ran.  At reference
speed the kernel takes REF_S, so the factor is 1; on a machine running
half as fast every sample reads 2 * REF_S and the factor is 0.5.  The
mean of the inverse is the right one: work done equals time spent
divided by slowdown, integrated over the time.  The kernel's own time
is excluded from every figure it corrects.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

REF_S = 0.001  # the kernel's time at reference speed
INTERVAL_S = 0.05
WINDOW_S = 0.5  # a request is corrected by the samples within this of it

clock = time.perf_counter


def kernel() -> int:
    """A fixed mix of hashing, dict, tuple, frozenset and str work."""
    memo: dict = {}
    acc = 0
    for i in range(600):
        key = (i % 97, i % 13)
        node = memo.get(key)
        if node is None:
            node = memo[key] = frozenset((key, i % 7, str(i % 31)))
        acc += len(node) + hash(key) % 3
        if i % 5 == 0:
            acc += len(",".join(sorted(map(str, key))))
    return acc


class Speedometer:
    """Timed kernel samples: (midpoint, REF_S / kernel time)."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.factors: list[float] = []
        self.overhead_s = 0.0  # time spent in the kernel, to subtract
        self._next = 0.0

    def sample(self) -> None:
        start = clock()
        kernel()
        end = clock()
        self.times.append((start + end) / 2)
        self.factors.append(REF_S / (end - start))
        self.overhead_s += clock() - start
        self._next = clock() + INTERVAL_S

    def maybe_sample(self) -> None:
        """Sample if INTERVAL_S has passed since the last sample."""
        if clock() >= self._next:
            self.sample()

    @contextlib.contextmanager
    def ticking(self):
        """Sample from a SIGALRM handler while a long call runs."""
        self.sample()
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def factor(self, start: float, end: float) -> float:
        """Mean factor of the samples within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:  # no sample that close: take the nearest one
            lo = min(max(lo - 1, 0), len(self.times) - 1)
            hi = lo + 1
        return statistics.fmean(self.factors[lo:hi])

