"""Aggressive (EASY) backfilling.

Only the head of the priority queue holds a reservation; any other job may
leap forward as long as it does not delay that head (Section 1).  The head's
reservation is the classic *shadow time / extra nodes* computation over the
running jobs' expected completions, which the cluster keeps sorted across
events.

Not one of the paper's nine evaluated policies, but (a) the starvation
queue of the CPlant baseline gives its head exactly this aggressive
reservation, so the machinery is shared, and (b) it is a useful reference
point in the extension sweeps.  :func:`head_first_pass` is the one
head-first pass: :class:`EasyBackfillScheduler` runs it with backfilling
and :class:`~repro.sched.nobackfill.NoBackfillScheduler` without, each
over any :data:`~repro.sched.base.PRIORITY_POLICIES` order — ``fsp.easy``
and ``fsp.nobackfill`` are these two passes with the ``fsp`` priority.
"""

from __future__ import annotations

from typing import Iterable

from ..core.job import Job
from ..obs import counters as _counters
from .base import BaseScheduler


def backfill_one(sched, head: Job, candidates: Iterable[Job], now: float) -> bool:
    """Start the first of ``candidates`` that cannot delay ``head``.

    ``head`` is blocked; its reservation is the shadow time / extra nodes
    read from the cluster's expected-end timeline
    (:meth:`~repro.core.listsched.RunningTimeline.shadow`).  A candidate
    that fits now starts if it ends by the shadow time or fits in the
    extra nodes.  Returns True if a job started (the caller recomputes
    the reservation from scratch).
    """
    cluster = sched.cluster
    shadow, free_then = cluster.expected_ends.shadow(head.nodes, now)
    extra = free_then - head.nodes
    free = cluster.free_nodes
    for job in candidates:
        nodes = job.nodes
        if nodes > free:
            continue
        if now + job.wcl <= shadow or nodes <= extra:
            c = _counters.ACTIVE
            if c is not None:
                c.hit("sched.backfill_start")
            sched.start(job, now)
            return True
    return False


def head_first_pass(sched, now: float, backfill: bool) -> None:
    """Start the priority-order head while it fits.

    At a blocked head the pass stops, or with ``backfill`` EASY-backfills
    one job around it (:func:`backfill_one`) and starts over.
    """
    while sched.queue:
        order = sched.ordered_queue(now)
        head = order[0]
        if sched.cluster.fits(head):
            sched.start(head, now)
            continue
        if not (backfill and backfill_one(sched, head, order[1:], now)):
            return


class EasyBackfillScheduler(BaseScheduler):
    """EASY backfilling with a pluggable queue priority."""

    def __init__(self, priority: str = "fcfs", **kw) -> None:
        super().__init__(priority=priority, **kw)
        self.name = f"easy.{priority}"

    def schedule(self, now: float, reason: str) -> None:
        head_first_pass(self, now, backfill=True)
