"""Timing that allows for the machine's drifting speed.

On a shared machine the CPU's speed drifts: a fixed pure-Python loop was
seen to take anywhere from 19 to 33 ms, in both wall and CPU time, over
periods of several seconds.  Raw timings then spread by tens of percent from
run to run.  So the benchmark times a fixed calibration loop next to the work
(between operations, and from a timer signal during long ones) and reports
each interval scaled to a reference speed:

    scaled = measured * REFERENCE_S / calibration,

where ``calibration`` is the mean of the calibration times taken just before,
during and just after the interval.  The loop uses no frobpush code, so a change to
the program cannot move it.  The raw times are kept beside the scaled ones.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import signal
import statistics
import time

# Time of one calibration loop at the reference speed (about its fastest
# time on a 2-CPU x86-64 sandbox with Python 3.11).
REFERENCE_S = 0.0005
# Marks between operations at most this often, and from the timer signal
# this often during an operation: a few percent of the run's time.
MARK_INTERVAL_S = 0.05
SAMPLE_PERIOD_S = 0.05


def _kernel() -> int:
    """Integer arithmetic, big integers, tuples and dict updates, the mix
    the library's builders spend their time on."""
    table: dict[tuple[int, int], int] = {}
    big = 1
    for i in range(1, 1500):
        key = (i % 61, i % 7)
        table[key] = table.get(key, 0) + (i * 7919) % 1009
        if i % 25 == 0:
            big = big * (i + 10**12) + len(table)
    return big % 1000003 + sum(table.values())


def _calibrate_here() -> float:
    """The median of three timed calibration loops."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def calibrate() -> float:
    """The calibration time averaged over the CPUs this process may run on.

    The CPUs of a shared machine drift apart, so each is calibrated in turn
    (by moving this process onto it) and the affinity is then restored.  A
    process pinned to one CPU calibrates that CPU only.
    """
    cpus = os.sched_getaffinity(0)
    if len(cpus) == 1:
        return _calibrate_here()
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(_calibrate_here())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


class Clock:
    """Calibration marks over a run, and the scaling of intervals by them.

    Marks are taken between operations (``due``) and, while ``sampling``,
    also from a timer signal every SAMPLE_PERIOD_S, so that an operation
    lasting seconds is scaled by the speed seen during it.  The time the
    signal handler spends calibrating is left out of the interval it
    interrupted.
    """

    def __init__(self) -> None:
        self._at: list[float] = []
        self._cal: list[float] = []
        self._pause_at: list[float] = []
        self._pause_s: list[float] = []

    def mark(self) -> None:
        cal = calibrate()
        self._at.append(time.perf_counter())
        self._cal.append(cal)

    def due(self) -> None:
        """Mark if MARK_INTERVAL_S has passed since the last mark."""
        if not self._at or time.perf_counter() - self._at[-1] >= MARK_INTERVAL_S:
            self.mark()

    def _on_timer(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.mark()
        self._pause_at.append(t0)
        self._pause_s.append(self._at[-1] - t0)

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def measured(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] without the calibrations taken inside it."""
        lo = bisect.bisect_left(self._pause_at, t0)
        hi = bisect.bisect_left(self._pause_at, t1)
        return t1 - t0 - sum(self._pause_s[lo:hi])

    def scaled(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] at the reference speed.  Needs a mark
        before t0 and one after t1."""
        before = bisect.bisect_right(self._at, t0) - 1
        after = bisect.bisect_left(self._at, t1)
        cal = statistics.fmean(self._cal[before:after + 1])
        return self.measured(t0, t1) * REFERENCE_S / cal
