"""The baseline CPlant scheduler: no-guarantee backfilling with a
starvation queue (Section 2.1) plus the paper's "minor change" knobs
(Sections 5.1–5.2 via configuration).

Mechanics reproduced from the paper:

* The main queue is processed in fairshare priority order at every
  scheduling event; any job with sufficient free nodes starts — i.e. *no
  guarantee* backfilling (no internal reservations at all).
* A job that has waited ``starvation_threshold`` seconds (24 h originally,
  72 h in the ``cplant72.*`` variants) moves to a secondary *starvation
  queue* kept in FCFS order.  The starvation head receives an aggressive
  (EASY-style) internal reservation, so its progress is guaranteed; main-
  queue jobs may only start if they do not delay that reservation.
* With ``entrance="fair"`` (the ``.fair`` variants), jobs of "heavy" users
  — decayed usage above ``heavy_factor`` x the mean active usage — are
  temporarily barred from the starvation queue and re-checked every
  ``recheck_interval`` seconds as their usage decays.

A pass that provably starts nothing is skipped (:meth:`_idle`): most
passes follow a barred user's recheck or an arrival that does not fit,
and nothing has changed since the last pass started everything it could.
"""

from __future__ import annotations

from typing import List

from ..core.events import EventKind
from ..core.job import Job, JobState
from ..obs import counters as _counters
from .base import BaseScheduler
from .easy import backfill_one
from .queues import _remove_identical


class NoGuaranteeScheduler(BaseScheduler):
    """CPlant baseline and its starvation-queue variants."""

    def __init__(
        self,
        starvation_threshold: float = 24 * 3600.0,
        entrance: str = "all",
        heavy_factor: float = 1.0,
        recheck_interval: float = 3600.0,
        **kw,
    ) -> None:
        super().__init__(priority="fairshare", **kw)
        if entrance not in ("all", "fair"):
            raise ValueError(f"entrance must be 'all' or 'fair', got {entrance!r}")
        if starvation_threshold <= 0:
            raise ValueError("starvation_threshold must be positive")
        self.starvation_threshold = starvation_threshold
        self.entrance = entrance
        self.heavy_factor = heavy_factor
        self.recheck_interval = recheck_interval
        self.starvation_queue: List[Job] = []
        self._starved_ids = set()
        #: no completion and no promotion since the last pass, which
        #: left nothing startable
        self._unchanged = False
        #: jobs queued since the last pass
        self._arrived: List[Job] = []
        h = int(starvation_threshold // 3600)
        self.name = f"cplant{h}.{entrance}"

    # -- queue management -------------------------------------------------------

    def enqueue(self, job: Job, now: float) -> None:
        super().enqueue(job, now)
        self._arrived.append(job)
        # chunk continuations inherit their original job's seniority, so a
        # split job that already waited out the threshold is immediately
        # eligible again rather than restarting its starvation clock
        eligible_at = max(now, job.seniority + self.starvation_threshold)
        self.events.push(eligible_at, EventKind.STARVATION_TIMER, job)

    def on_timer(self, payload, now: float, kind: EventKind) -> None:
        if kind is not EventKind.STARVATION_TIMER:
            super().on_timer(payload, now, kind)
            return
        job: Job = payload
        if job.state is not JobState.QUEUED or job.id in self._starved_ids:
            return  # started (or already promoted) in the meantime
        if self._may_enter_starvation(job, now):
            _remove_identical(self.queue, job)
            self.lanes.remove(job)
            self._drop_from_order(job)
            self._starve_insert(job)
            self._unchanged = False
        else:
            # barred heavy user: poll again as usage decays
            self.events.push(
                now + self.recheck_interval, EventKind.STARVATION_TIMER, job
            )

    def _may_enter_starvation(self, job: Job, now: float) -> bool:
        if self.entrance == "all":
            return True
        return not self.tracker.is_heavy(job.user_id, now, self.heavy_factor)

    def _starve_insert(self, job: Job) -> None:
        """Insert keeping the starvation queue sorted by (seniority, id), so
        scheduling rounds read it directly instead of re-sorting.  Timers
        fire in near-seniority order, so this is an append in practice."""
        sq = self.starvation_queue
        key = (job.seniority, job.id)
        i = len(sq)
        while i > 0 and (sq[i - 1].seniority, sq[i - 1].id) > key:
            i -= 1
        sq.insert(i, job)
        self._starved_ids.add(job.id)

    def on_completion(self, job: Job, now: float) -> None:
        super().on_completion(job, now)
        self._unchanged = False

    def waiting_jobs(self) -> List[Job]:
        return self.queue + self.starvation_queue

    # -- scheduling pass ----------------------------------------------------------

    def start(self, job: Job, now: float) -> None:
        # jobs can live in either queue
        if job.id in self._starved_ids:
            self._starved_ids.discard(job.id)
            _remove_identical(self.starvation_queue, job)
            self._allocate(job, now)
        else:
            super().start(job, now)

    def schedule(self, now: float, reason: str) -> None:
        if self._idle(now):
            # the fairshare tracker settles where a full pass settles it
            self._order_epoch(now)
            c = _counters.ACTIVE
            if c is not None:
                c.hit("sched.pass_skipped")
        else:
            while self._one_round(now):
                pass
        self._unchanged = True
        self._arrived.clear()

    def _idle(self, now: float) -> bool:
        """Whether a full pass at ``now`` would start nothing.

        Every pass ends with nothing startable.  If since the last one no
        job completed and none was promoted, the free nodes, the running
        jobs and the starvation queue are the same, so a job that did not
        fit then does not fit now.  With a starvation head whose shadow
        lies after ``now``, the shadow and the extra nodes are the same as
        then too (an expected end that passed since fell short of the
        head's nodes then, and still does); a job that would have ended
        after the shadow and needed more than the extra nodes still
        does, as ``now + wcl`` only grows.  A shadow at ``now`` always
        runs the pass: ``now + wcl <= now`` can turn true as ``now``
        grows and rounding absorbs a tiny ``wcl``.  So only the jobs
        queued since the last pass need the pass's own test.
        """
        if not self._unchanged:
            return False
        free = self.cluster.free_nodes
        starv = self.starvation_queue
        if not starv:
            return all(job.nodes > free for job in self._arrived)
        head = starv[0]
        shadow, free_then = self.cluster.expected_ends.shadow(head.nodes, now)
        if shadow <= now:
            return False
        extra = free_then - head.nodes
        return all(
            job.nodes > free or (now + job.wcl > shadow and job.nodes > extra)
            for job in self._arrived
        )

    def _one_round(self, now: float) -> bool:
        """One greedy round; True if a job was started."""
        starv = self.starvation_queue  # kept sorted by _starve_insert
        if starv:
            head = starv[0]
            if self.cluster.fits(head):
                self.start(head, now)
                return True
            candidates = starv[1:] + self.ordered_queue(now)
            return backfill_one(self, head, candidates, now)
        # pure no-guarantee backfilling: greedy in fairshare order
        for job in self.ordered_queue(now):
            if self.cluster.fits(job):
                self.start(job, now)
                return True
        return False
