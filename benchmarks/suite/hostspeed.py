"""How fast the host runs Python right now, sampled alongside a workload.

On a shared box the speed at which a vCPU executes Python drifts by up
to 2x within seconds and by +/-20% between 20-second runs, as other
tenants come and go.  Measured raw, the end-to-end metrics of ten runs
spread by 0.1-0.3 (interquartile range over median), which would hide
most changes the benchmark exists to detect.

A :class:`HostSpeed` sampler measures that drift while the workload
runs: a forked process that every :data:`INTERVAL_S` moves to the next
sampled CPU and times a fixed pure-Python :func:`kernel` in thread CPU
time, so time spent preempted does not count.  The kernel is frozen here
and shares no code with the program, so no change to the program can
move it.  :meth:`HostSpeed.factor` is the kernel time over an interval
(a harmonic mean, see there) divided by :data:`REFERENCE_S`: dividing a
time measured over that interval by the factor gives the time the same
work takes at reference speed.  On the 2-core box this took the spread
of throughput and CPU per operation from 0.1-0.3 down to 0.02-0.07.
"""

from __future__ import annotations

import bisect
import itertools
import multiprocessing
import os
import time
from contextlib import contextmanager

#: The kernel's typical thread CPU time on the 2-core reference box.
#: This constant fixes the unit of every normalized metric: never change it.
REFERENCE_S = 0.00034
#: Seconds between samples.
INTERVAL_S = 0.01


def kernel() -> None:
    """A fixed mix of what the interpreter does most: dict lookups and
    stores, list pushes and pops, integer arithmetic."""
    table: dict[int, int] = {}
    stack: list[int] = []
    for i in range(1500):
        key = i & 63
        table[key] = table.get(key, 0) + i
        stack.append(key)
        if len(stack) > 8:
            stack.pop(0)


def _sample(cpus: list[int], conn) -> None:
    """Sample until the parent writes to *conn*; then send the samples back."""
    samples: list[tuple[float, float]] = []
    for cpu in itertools.cycle(cpus):
        if conn.poll(INTERVAL_S):
            break
        os.sched_setaffinity(0, {cpu})
        begin = time.thread_time()
        kernel()
        samples.append((time.monotonic(), time.thread_time() - begin))
    conn.send(samples)
    conn.close()


class HostSpeed:
    """Sample the kernel on every CPU this process may use, from a forked
    process, between :meth:`start` and :meth:`stop`.

    Start it before the workload starts any thread: it forks."""

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self._times: list[float] = []
        #: Running sums of the samples' speeds (1 / kernel seconds).
        self._prefix: list[float] = [0.0]
        self._context = multiprocessing.get_context("fork")
        self._proc = None
        self._conn = None

    @property
    def pid(self) -> int | None:
        return self._proc.pid if self._proc is not None else None

    def start(self) -> HostSpeed:
        self._conn, theirs = self._context.Pipe()
        self._proc = self._context.Process(target=_sample, args=(self.cpus, theirs), daemon=True)
        self._proc.start()
        theirs.close()
        return self

    def stop(self) -> None:
        """Stop sampling; receive the samples, then join the sampler."""
        self._conn.send(None)
        samples = self._conn.recv()
        self._conn.close()
        self._proc.join(timeout=10)
        self._times = [stamp for stamp, _ in samples]
        self._prefix = list(itertools.accumulate((1 / took for _, took in samples), initial=0.0))

    def factor(self, start: float, end: float) -> float:
        """Kernel time from one interval before *start* to one after
        *end* (``time.monotonic`` stamps), over :data:`REFERENCE_S`.

        Work done in a stretch of time is proportional to the speed
        there, so the time a piece of work would take at reference speed
        is the measured time times the mean of ``REFERENCE_S / kernel
        time``: the factor is the harmonic mean of the kernel times.
        With no sample in the interval the nearest sample decides; with
        none at all, 1."""
        if not self._times:
            return 1.0
        low = bisect.bisect_left(self._times, start - INTERVAL_S)
        high = bisect.bisect_right(self._times, end + INTERVAL_S)
        if high <= low:
            low = min(low, len(self._times) - 1)
            high = low + 1
        speed = (self._prefix[high] - self._prefix[low]) / (high - low)
        return 1 / speed / REFERENCE_S


@contextmanager
def sampled(single_threaded: bool):
    """Sample host speed where a workload runs: a single-threaded one is
    pinned to one CPU and sampled there, a multi-process one is sampled
    on every CPU in turn.  Yields the :class:`HostSpeed`, stopped (and
    the affinity restored) on exit."""
    saved = os.sched_getaffinity(0)
    if single_threaded:
        os.sched_setaffinity(0, {min(saved)})
    speed = HostSpeed().start()
    try:
        yield speed
    finally:
        speed.stop()
        os.sched_setaffinity(0, saved)
