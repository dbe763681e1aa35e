"""Fairness-adjusted size-based scheduling (FSP-like).

The Fair Sojourn Protocol (Friedman & Henderson; analysed for size-based
fairness by Dell'Amico, Carra & Michiardi, *On Fair Size-Based
Scheduling*) runs the job that would finish first in a hypothetical
*processor-sharing* system where every live job gets an equal share of
the machine.  That keeps the efficiency of shortest-first scheduling
while bounding how far any job can fall behind the egalitarian ideal —
exactly the trade-off the fairness-matrix extension probes.

The adaptation to rigid parallel jobs follows the resource-equality
model already used by
:func:`repro.metrics.fairness.resource_equality_deficits`: while ``N``
jobs are live in the virtual system, each processes at
``min(width, machine_size / N)`` nodes.  A job's *virtual completion
time* under that fluid schedule is its rank.  Jobs stay in the virtual
system until they virtually complete, whether or not the real machine has
finished them — that memory of received service is what makes FSP fair
rather than merely short-job-greedy.

This module holds only the fluid machine and its order.  FSP is the
``fsp`` priority of the shared head-first passes
(:class:`~repro.sched.easy.EasyBackfillScheduler` and
:class:`~repro.sched.nobackfill.NoBackfillScheduler`), which start jobs in
rank order, EASY-backfilling around a blocked head or not.

Ranks of not-yet-virtually-complete jobs are projected at the current
instant (remaining virtual work over current share); shares only drift
when the live population changes, and the projection is refreshed on
every such change, so the order is deterministic and cache-friendly.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..core.job import Job
from ..obs import counters as _counters
from .queues import fcfs_order


class VirtualFairShare:
    """The fluid equal-share system behind FSP ranks.

    Tracks, per live job, the remaining *virtual work* (node-seconds of
    its wall-clock estimate) and drains it piecewise-linearly: between
    population changes every job processes at ``min(width, size / N)``
    nodes.  ``settle(now)`` advances the virtual clock to ``now``;
    ``version`` bumps whenever ranks may have moved, so schedulers can
    cache their sorted queue against it.

    Live jobs sit in numpy slot arrays (remaining work, width), so each
    breakpoint is a handful of vector operations instead of a Python scan.
    A freed slot is reused by the next arrival; until then it holds
    ``rem=+inf``, which never wins the breakpoint minimum and never drains
    to zero (every width is positive, so every share is).  Every element goes through the same IEEE
    operations, in the same order, as a per-job loop would (share =
    ``min(width, size/N)``; ``rem / share``; ``rem - share * dt``), so the
    virtual completions are bit-for-bit those of the scalar fluid machine.
    """

    __slots__ = ("size", "version", "_vt", "_n", "_slot", "_ids", "_free",
                 "_rem", "_width", "_vcomp")

    def __init__(self, size: int) -> None:
        self.size = size
        self.version = 0
        self._vt: float = 0.0
        #: number of live (not yet virtually complete) jobs
        self._n = 0
        #: job id -> slot of a live job; slot -> job id (None when free)
        self._slot: Dict[int, int] = {}
        self._ids: List[Optional[int]] = []
        self._free: List[int] = []
        #: remaining virtual node-seconds and width per slot
        self._rem = np.full(0, np.inf)
        self._width = np.ones(0)
        #: job id -> virtual completion time, once drained
        self._vcomp: Dict[int, float] = {}

    def _alloc(self) -> int:
        if self._free:
            return self._free.pop()
        slot = len(self._ids)
        if slot == len(self._rem):
            grow = max(16, slot)
            self._rem = np.concatenate([self._rem, np.full(grow, np.inf)])
            self._width = np.concatenate([self._width, np.ones(grow)])
        self._ids.append(None)
        return slot

    def add(self, job: Job, now: float) -> None:
        """Admit an arrival: settle to ``now``, then insert its work."""
        self.settle(now)
        slot = self._alloc()
        self._slot[job.id] = slot
        self._ids[slot] = job.id
        self._rem[slot] = job.nodes * max(job.wcl, 1e-9)
        self._width[slot] = job.nodes
        self._n += 1
        self.version += 1

    def settle(self, now: float) -> None:
        """Drain the fluid system up to ``now``."""
        if now <= self._vt:
            return
        advanced = False
        rem = self._rem
        while self._n and self._vt < now:
            share = np.minimum(self._width, self.size / self._n)
            # the next breakpoint: a virtual completion or ``now`` itself
            dt = now - self._vt
            first = float((rem / share).min())
            if first < dt:
                dt = first
            rem -= share * dt
            done = np.flatnonzero(rem <= 1e-9).tolist()
            self._vt += dt
            for slot in done:
                jid = self._ids[slot]
                del self._slot[jid]
                self._ids[slot] = None
                self._free.append(slot)
                self._vcomp[jid] = self._vt
            if done:
                rem[done] = np.inf
                self._n -= len(done)
            advanced = True
            c = _counters.ACTIVE
            if c is not None:
                c.hit("fsp.settle")
                if done:
                    c.hit("fsp.virtual_complete", len(done))
        self._vt = now  # idle tail: nothing left to drain
        if advanced:
            self.version += 1

    def rank(self, job: Job) -> Tuple[float, float, int]:
        """Sort key: (projected virtual completion, submit, id)."""
        return (self.projection()(job), job.submit_time, job.id)

    def projection(self) -> Callable[[Job], float]:
        """A job's projected virtual completion time, frozen at the current
        state: its drain time once virtually complete, else the current
        instant plus remaining work over current share.  All live jobs are
        projected in one vector pass."""
        vt, slot_of, vcomp = self._vt, self._slot, self._vcomp
        vc = []
        if self._n:
            vc = (vt + self._rem / np.minimum(self._width,
                                              self.size / self._n)).tolist()

        def key(job: Job) -> float:
            slot = slot_of.get(job.id)
            return vcomp.get(job.id, vt) if slot is None else vc[slot]

        return key


def fsp_order(vfs: VirtualFairShare, jobs: Iterable[Job], now: float) -> List[Job]:
    """The jobs by projected virtual completion in ``vfs``, FCFS on ties."""
    out = fcfs_order(jobs, now)
    out.sort(key=vfs.projection())
    return out
