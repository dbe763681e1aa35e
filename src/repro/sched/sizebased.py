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
time* under that fluid schedule is its rank; the real machine then
starts jobs in rank order, optionally EASY-backfilling around a blocked
head.  Jobs stay in the virtual system until they virtually complete,
whether or not the real machine has finished them — that memory of
received service is what makes FSP fair rather than merely short-job-
greedy.

Ranks of not-yet-virtually-complete jobs are projected at the current
instant (remaining virtual work over current share); shares only drift
when the live population changes, and the projection is refreshed on
every such change, so the order is deterministic and cache-friendly.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.job import Job
from ..obs import counters as _counters
from .base import BaseScheduler
from .easy import head_first_pass


class VirtualFairShare:
    """The fluid equal-share system behind FSP ranks.

    Tracks, per live job, the remaining *virtual work* (node-seconds of
    its wall-clock estimate) and drains it piecewise-linearly: between
    population changes every job processes at ``min(width, size / N)``
    nodes.  ``settle(now)`` advances the virtual clock to ``now``;
    ``version`` bumps whenever ranks may have moved, so schedulers can
    cache their sorted queue against it.
    """

    __slots__ = ("size", "version", "_vt", "_remaining", "_widths", "_vcomp")

    def __init__(self, size: int) -> None:
        self.size = size
        self.version = 0
        self._vt: float = 0.0
        #: job id -> remaining virtual node-seconds (insertion = arrival order)
        self._remaining: Dict[int, float] = {}
        self._widths: Dict[int, int] = {}
        #: job id -> virtual completion time, once drained
        self._vcomp: Dict[int, float] = {}

    def add(self, job: Job, now: float) -> None:
        """Admit an arrival: settle to ``now``, then insert its work."""
        self.settle(now)
        self._remaining[job.id] = job.nodes * max(job.wcl, 1e-9)
        self._widths[job.id] = job.nodes
        self.version += 1

    def settle(self, now: float) -> None:
        """Drain the fluid system up to ``now``."""
        if now <= self._vt:
            return
        advanced = False
        while self._remaining and self._vt < now:
            n = len(self._remaining)
            fair = self.size / n
            # the next breakpoint: a virtual completion or ``now`` itself
            dt = now - self._vt
            for jid, rem in self._remaining.items():
                t = rem / min(self._widths[jid], fair)
                if t < dt:
                    dt = t
            done: List[int] = []
            for jid in self._remaining:
                self._remaining[jid] -= min(self._widths[jid], fair) * dt
                if self._remaining[jid] <= 1e-9:
                    done.append(jid)
            self._vt += dt
            for jid in done:
                del self._remaining[jid]
                del self._widths[jid]
                self._vcomp[jid] = self._vt
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
        rem = self._remaining.get(job.id)
        if rem is None:
            vc = self._vcomp.get(job.id, self._vt)
        else:
            share = min(self._widths[job.id],
                        self.size / len(self._remaining))
            vc = self._vt + rem / share
        return (vc, job.submit_time, job.id)


class FairSojournScheduler(BaseScheduler):
    """FSP-like policy: start order = virtual-fair-share completion order.

    ``backfill="easy"`` lets jobs leap a blocked head under the classic
    shadow/extra-nodes rule (the head's rank-one position is preserved);
    ``backfill="none"`` is the strict list-schedule variant.
    """

    def __init__(self, backfill: str = "easy", **kw) -> None:
        if backfill not in ("easy", "none"):
            raise ValueError(
                f"unknown backfill mode {backfill!r}; known: 'easy', 'none'"
            )
        super().__init__(priority="fcfs", **kw)
        self.backfill = backfill
        self.name = f"fsp.{backfill}"
        self.vfs: VirtualFairShare | None = None
        self.ordering = self._fsp_order

    def _fsp_order(self, jobs, now: float) -> List[Job]:
        return sorted(jobs, key=self.vfs.rank)

    def _order_epoch(self, now: float) -> int:
        self.vfs.settle(now)
        return self.vfs.version

    def attach(self, engine) -> None:
        super().attach(engine)
        self.vfs = VirtualFairShare(engine.cluster.size)

    def enqueue(self, job: Job, now: float) -> None:
        super().enqueue(job, now)
        self.vfs.add(job, now)

    def schedule(self, now: float, reason: str) -> None:
        head_first_pass(self, now, backfill=self.backfill == "easy")
