"""A fixed computation whose duration samples the machine's current speed.

On a shared machine the speed drifts by up to 2x for seconds to minutes at a
time, and the program slows down in step with this computation.  Times
divided by nearby samples are in reference units and stay put.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_left, bisect_right
from fractions import Fraction
from statistics import fmean
from time import perf_counter_ns


def reference_work() -> None:
    """Fixed pure-Python work of the program's kind: Fractions, big ints, dicts."""
    total = Fraction(0)
    table: dict[int, int] = {}
    for k in range(1, 300):
        total += Fraction(k % 97 + 1, k % 89 + 1)
        table[k % 311] = table.get(k % 311, 0) + k * k


def reference_ns() -> int:
    """How long `reference_work` takes now: one sample of the machine's speed.

    The cyclic collector is off while it runs, so the heap the program keeps
    alive does not change the sample.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter_ns()
        reference_work()
        return perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Takes a reference sample every INTERVAL_S, from a timer signal.

    The samples land inside long operations as well as between operations.
    `stolen_ns` is the time spent in the signal handler, which callers
    subtract from the operations it interrupted.  A sample that would start
    while another one runs (the timer firing during a direct call) is
    skipped, so samples never nest and `starts` stays sorted.
    """

    INTERVAL_S = 0.02
    # Samples on each side of an interval that count towards its unit.
    NEIGHBOURS = 3

    def __init__(self):
        self.starts: list[int] = []
        self.samples: list[int] = []
        self.stolen_ns = 0
        self._sampling = False

    def sample(self, *_signal) -> None:
        if self._sampling:
            return
        self._sampling = True
        entered = perf_counter_ns()
        duration = reference_ns()
        self.starts.append(entered)
        self.samples.append(duration)
        self.stolen_ns += perf_counter_ns() - entered
        self._sampling = False

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def unit(self, start_ns: int, end_ns: int) -> float:
        """Mean sample over [start_ns, end_ns] and the NEIGHBOURS nearest on each side."""
        first = max(bisect_left(self.starts, start_ns) - self.NEIGHBOURS, 0)
        last = bisect_right(self.starts, end_ns) + self.NEIGHBOURS
        return fmean(self.samples[first:last])
