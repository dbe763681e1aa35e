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
"""

from __future__ import annotations

from typing import List

from ..core.events import EventKind
from ..core.job import Job, JobState
from ..obs import counters as _counters
from .base import BaseScheduler, _remove_identical
from .easy import backfill_one


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
        h = int(starvation_threshold // 3600)
        self.name = f"cplant{h}.{entrance}"

    # -- queue management -------------------------------------------------------

    def enqueue(self, job: Job, now: float) -> None:
        super().enqueue(job, now)
        # chunk continuations inherit their original job's seniority, so a
        # split job that already waited out the threshold is immediately
        # eligible again rather than restarting its starvation clock
        eligible_at = max(now, job.seniority + self.starvation_threshold)
        self.engine.add_timer(eligible_at, job, EventKind.STARVATION_TIMER)

    def on_timer(self, payload, now: float, kind: EventKind) -> None:
        if kind is not EventKind.STARVATION_TIMER:
            super().on_timer(payload, now, kind)
            return
        job: Job = payload
        if job.state is not JobState.QUEUED or job.id in self._starved_ids:
            return  # started (or already promoted) in the meantime
        if self._may_enter_starvation(job, now):
            _remove_identical(self.queue, job)
            self._drop_from_order(job)
            self._starve_insert(job)
        else:
            # barred heavy user: poll again as usage decays
            self.engine.add_timer(
                now + self.recheck_interval, job, EventKind.STARVATION_TIMER
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

    def waiting_jobs(self) -> List[Job]:
        return self.queue + self.starvation_queue

    # -- scheduling pass ----------------------------------------------------------

    def start(self, job: Job, now: float) -> None:
        # jobs can live in either queue
        if job.id in self._starved_ids:
            self._starved_ids.discard(job.id)
            _remove_identical(self.starvation_queue, job)
            c = _counters.ACTIVE
            if c is not None:
                c.hit("sched.start")
            self.engine.start_job(job)
            self.tracker.job_started(job, now)
        else:
            super().start(job, now)

    def schedule(self, now: float, reason: str) -> None:
        while self._one_round(now):
            pass

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
