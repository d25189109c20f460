"""Host-speed sampling, so that reported times do not drift with the host.

The machines this benchmark runs on are shared, and their speed drifts by
tens of percent within seconds to minutes (CPU time drifts with wall time,
so this is contention, not scheduling).  While a ``SpeedSampler`` runs, a
timer signal interrupts this process every ``PERIOD_S`` seconds to time one
short slice of fixed reference work, of the same kind that hsembed does
(small tuples, sorting, dicts, int arithmetic) but sharing no code with it.
A slice taking ``REFERENCE_SLICE_NS`` means reference speed.

An interval measured with ``perf_counter_ns`` is reported at reference
speed: its length times the mean of ``REFERENCE_SLICE_NS / slice time`` over
the slices taken inside it.  The samples run in a signal handler of this
process's only thread, between bytecodes.  The process and its children are
pinned to one CPU, so the samples measure the CPU the measured work runs
on, and take about 2 % of it; that share is part of every figure.  Around
short child processes the timer is paused and samples are taken between
them instead, because a sample that shares the CPU with a running child
times the sharing, not the host.  A change to hsembed moves the reported
figures; a change in host speed moves them much less.
"""

from __future__ import annotations

import os
import signal
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Dict, Iterator, List, Tuple

PERIOD_S = 0.05
SLICE_ITERATIONS = 1500
REFERENCE_SLICE_NS = 1_250_000  # a slice's time at reference speed, by definition
MIN_SLICES = 3  # an interval with fewer slices borrows its neighbours'


def reference_slice() -> None:
    seen: Dict[Tuple[int, ...], int] = {}
    for i in range(SLICE_ITERATIONS):
        key = tuple(sorted(((i * 7) % 13, (i * 3) % 11, i % 5), reverse=True))
        seen[key] = seen.get(key, 0) + sum(key)


class SpeedSampler:
    """Slices timed while ``running()``; ``scale`` converts intervals."""

    def __init__(self) -> None:
        self.starts: List[int] = []
        self.factors: List[float] = []

    def _sample(self, signum, frame) -> None:
        started = perf_counter_ns()
        reference_slice()
        self.starts.append(started)
        self.factors.append(REFERENCE_SLICE_NS / (perf_counter_ns() - started))

    @contextmanager
    def running(self) -> Iterator["SpeedSampler"]:
        """Sample every ``PERIOD_S``, and once on entry and on exit, so
        that even a run shorter than the period has samples.

        The process is pinned to one of its CPUs for the duration, and the
        child processes it starts inherit the pin, so the samples measure
        the CPU that the measured work runs on.
        """
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sample(None, None)
            os.sched_setaffinity(0, cpus)

    @contextmanager
    def paused(self) -> Iterator[None]:
        """No timer samples inside the block (call ``sample`` instead).

        For short child processes: a timer sample taken while the child
        holds the shared CPU would time the sharing, not the host.
        """
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def sample(self, count: int) -> None:
        """Take ``count`` samples now."""
        for _ in range(count):
            self._sample(None, None)

    def factor(self, start_ns: int, end_ns: int) -> float:
        """Mean speed factor of the slices taken between two readings of
        ``perf_counter_ns``, widened to the nearest ``MIN_SLICES`` slices."""
        lo = bisect_left(self.starts, start_ns)
        hi = bisect_right(self.starts, end_ns)
        while hi - lo < MIN_SLICES and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        return sum(self.factors[lo:hi]) / (hi - lo)

    def scale(self, start_ns: int, end_ns: int) -> float:
        """The interval's length in ns at reference speed."""
        return (end_ns - start_ns) * self.factor(start_ns, end_ns)
