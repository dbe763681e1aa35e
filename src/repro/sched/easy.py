"""Aggressive (EASY) backfilling.

Only the head of the priority queue holds a reservation; any other job may
leap forward as long as it does not delay that head (Section 1).  The head's
reservation is the classic *shadow time / extra nodes* computation over the
running jobs' expected completions.

Not one of the paper's nine evaluated policies, but (a) the starvation
queue of the CPlant baseline gives its head exactly this aggressive
reservation, so the machinery is shared, and (b) it is a useful reference
point in the extension sweeps.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from ..core.job import Job
from ..obs import counters as _counters
from .base import BaseScheduler


def head_reservation(
    need: int,
    free_now: int,
    now: float,
    running: Iterable[Job],
) -> Tuple[float, int]:
    """Shadow time and extra nodes for a blocked head job needing ``need``.

    Returns ``(shadow, extra)``: the earliest time ``need`` nodes are
    expected free, and how many nodes beyond ``need`` will be free then.
    A backfill candidate is safe iff it terminates by ``shadow`` or uses at
    most ``extra`` nodes.
    """
    if free_now >= need:
        return now, free_now - need
    # inlined job.expected_end(now): this runs once per blocked-head round,
    # over every running job
    ends = []
    for j in running:
        e = j.start_time + j.wcl
        ends.append((e if e > now else now, j.nodes))
    ends.sort()
    free = free_now
    shadow = None
    i = 0
    while i < len(ends):
        end, nodes = ends[i]
        free += nodes
        i += 1
        if free >= need:
            shadow = end
            # include jobs ending at exactly the shadow instant
            while i < len(ends) and ends[i][0] == end:
                free += ends[i][1]
                i += 1
            break
    if shadow is None:
        raise RuntimeError(
            f"head needs {need} nodes but running+free only frees {free}"
        )
    return shadow, free - need


def backfill_one(sched, head: Job, candidates: Iterable[Job], now: float) -> bool:
    """Start the first of ``candidates`` that cannot delay ``head``.

    ``head`` is blocked; its reservation is the shadow time / extra nodes
    of :func:`head_reservation`.  A candidate that fits now starts if it
    ends by the shadow time or fits in the extra nodes.  Returns True if a
    job started (the caller recomputes the reservation from scratch).
    """
    cluster = sched.cluster
    shadow, extra = head_reservation(
        head.nodes, cluster.free_nodes, now, cluster.running_jobs()
    )
    for job in candidates:
        if not cluster.fits(job):
            continue
        if now + job.wcl <= shadow or job.nodes <= extra:
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
