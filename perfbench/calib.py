"""Host-speed calibration: state CPU times at one nominal host speed.

A shared host is slow in two ways, and each lasts longer than a run:

* it takes the virtual CPU away (the same policy run read 0.08 s and
  1.1 s of wall time within two minutes, at constant CPU time), so the
  benchmark times work in CPU seconds, never wall seconds;
* it runs the CPU slower or faster (the same policy run took 0.08 s of
  CPU in one phase and 0.15 s in the next), and a median over one run
  cannot remove a phase that outlasts the run.

The second is removed by a reference slice: fixed pure-Python work of the
kinds the simulator spends its time on (a heap of tuples, dict updates,
``__slots__`` attributes, a sort, bisection), importing nothing from
``repro``, so no change to the program moves it.  A run times slices
spread through its work; :meth:`Calibration.scaled` turns CPU seconds
into the seconds they would take on a host that runs one slice in
:data:`NOMINAL_S`.  Over ten runs of each workload on a shared 2-vCPU
host, the scaled times spread 5-11% of their median between quartiles,
where unscaled CPU time of the same cold build ranged from 20 to 30 s.
"""

from __future__ import annotations

import gc
import heapq
import os
import resource
import statistics
import time
from bisect import bisect_left
from typing import List, Optional

#: CPU seconds one reference slice takes on the nominal host
NOMINAL_S = 0.03
#: iterations of the reference loop in one slice
SLICE_N = 12_000
#: seconds of work per reference slice (a slice costs 5% of the work)
PACE_S = 0.5


class _Item:
    __slots__ = ("key", "nodes", "end")

    def __init__(self, key: int, nodes: int, end: float) -> None:
        self.key = key
        self.nodes = nodes
        self.end = end


def reference_slice(n: int = SLICE_N) -> float:
    """The fixed reference work; returns a checksum so nothing is skipped."""
    heap: list = []
    usage: dict = {}
    times: List[float] = [0.0]
    counts: List[int] = [64]
    acc = 0.0
    x = 12345
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        item = _Item(i, 1 + x % 64, (x % 10007) * 0.5)
        heapq.heappush(heap, (item.end, i, item))
        user = x % 97
        usage[user] = usage.get(user, 0.0) + item.nodes * 0.25
        k = bisect_left(times, item.end)
        times.insert(k, item.end)
        counts.insert(k, item.nodes)
        if len(times) > 48:
            del times[:24]
            del counts[:24]
        if len(heap) > 256:
            end, _seq, top = heapq.heappop(heap)
            acc += end - top.nodes
        if i % 256 == 255:
            acc += sorted(usage, key=usage.__getitem__)[0]
    return acc


def cpu() -> float:
    """CPU seconds of this process so far (every thread)."""
    return time.process_time()


def children_cpu() -> float:
    """CPU seconds of every child process waited for so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Calibration:
    """The reference slices timed through one run.

    The host flips between a fast and a slow mode within seconds (one
    slice reads about 19 or 31 ms, rarely between), so one run's work
    meets both in some proportion.  :meth:`tick`, called often from the
    work, takes one slice per :data:`PACE_S` seconds of work, so the
    slices meet the modes in the same proportion, and :meth:`slice_s` is
    their mean (a median would snap to one mode).
    """

    def __init__(self) -> None:
        self.slices: List[float] = []
        #: ``time.perf_counter()`` at the end of each slice
        self.at: List[float] = []
        #: CPU seconds spent in slices, for work timed around a tick
        self.spent = 0.0
        self._last = time.perf_counter()

    def sample(self, k: int = 1) -> None:
        """Time ``k`` slices, with the cyclic garbage collector off so a
        slice never pays for scanning the program's own objects."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(k):
                t = cpu()
                reference_slice()
                dt = cpu() - t
                self.slices.append(dt)
                self.at.append(time.perf_counter())
                self.spent += dt
        finally:
            if enabled:
                gc.enable()

    def tick(self, at_least: int = 0) -> None:
        """One slice for every :data:`PACE_S` seconds of work since the
        last slice, and at least ``at_least``."""
        due = time.perf_counter() - self._last
        n = int(due / PACE_S)
        if max(n, at_least):
            self.sample(max(n, at_least))
            self._last = time.perf_counter() - (due - n * PACE_S)

    def slice_s(self, t0: Optional[float] = None,
                t1: Optional[float] = None) -> float:
        """Mean CPU seconds of one slice: of every slice in the run, or of
        those that ended within the work timed from ``t0`` to ``t1``
        (``time.perf_counter()``) or one pace after it; failing those,
        of the slice nearest its end."""
        if not self.slices:
            self.sample()
        if t0 is None:
            return statistics.fmean(self.slices)
        near = [s for s, at in zip(self.slices, self.at)
                if t0 <= at <= t1 + PACE_S]
        if not near:
            near = [min(zip(self.at, self.slices),
                        key=lambda p: abs(p[0] - t1))[1]]
        return statistics.fmean(near)

    def scaled(self, cpu_s: float, t0: Optional[float] = None,
               t1: Optional[float] = None) -> float:
        """``cpu_s`` CPU seconds, spent from ``t0`` to ``t1``, at the
        nominal host speed."""
        return cpu_s * NOMINAL_S / self.slice_s(t0, t1)


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU, so the
    slices and the work they calibrate meet the same core (a server and
    its client then share it)."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
