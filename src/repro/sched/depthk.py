"""Reservation-depth-k backfilling.

The paper (Section 1): "Many production schedulers use variations between
conservative and aggressive backfilling, giving the first n jobs in the
queue a reservation."  This scheduler is that whole family:

* depth 0  — no-guarantee backfilling (no reservations at all),
* depth 1  — aggressive/EASY backfilling,
* depth k  — the first k jobs in priority order hold reservations,
* depth ∞  — conservative backfilling with dynamic reservations: the
  paper's ``consdyn`` policies (Section 5.4), named ``consdyn.<priority>``.

The implementation builds, at every scheduling event, a fresh reservation
profile containing the running jobs plus earliest-fit reservations for the
first ``depth`` queued jobs in priority order; any other job may start
immediately if it fits the profile (i.e. delays none of those
reservations).  Reservations are not sticky across events, which keeps
the family uniform in one mechanism: at depth ∞ every queued job is
re-placed in priority order at every event, so a job's place in the
schedule tracks its user's current fairshare standing and "fair" jobs
cannot starve.  The sticky-reservation end of the spectrum is
:class:`repro.sched.ConservativeScheduler`.
"""

from __future__ import annotations

import math
from typing import Dict

from ..core.job import Job
from ..core.profile import ReservationProfile
from .base import BaseScheduler
from .conservative import EPS


class DepthKScheduler(BaseScheduler):
    """Backfilling with reservations for the first ``depth`` queued jobs."""

    def __init__(
        self,
        depth: int | float = 1,
        priority: str = "fairshare",
        overrun_extension: float = 900.0,
        **kw,
    ) -> None:
        super().__init__(priority=priority, **kw)
        if isinstance(depth, float) and not math.isinf(depth):
            raise ValueError("depth must be an int or math.inf")
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
        if overrun_extension <= 0:
            raise ValueError("overrun_extension must be positive")
        self.depth = depth
        self.overrun_extension = overrun_extension
        self.name = (
            f"consdyn.{priority}" if math.isinf(depth)
            else f"depth{depth}.{priority}"
        )
        #: running-job predicted completion times
        self.predicted_end: Dict[int, float] = {}

    def on_completion(self, job: Job, now: float) -> None:
        super().on_completion(job, now)
        self.predicted_end.pop(job.id, None)

    def start(self, job: Job, now: float) -> None:
        self.predicted_end[job.id] = now + job.wcl
        super().start(job, now)

    def _occupations(self, now: float):
        """(nodes, predicted end) per running job, refreshing overrun
        predictions in place."""
        predicted = self.predicted_end
        for rj in self.cluster.running_jobs():
            pe = predicted[rj.id]
            if pe <= now:
                pe = now + self.overrun_extension
                predicted[rj.id] = pe
            yield rj.nodes, pe

    def schedule(self, now: float, reason: str) -> None:
        profile = ReservationProfile.from_occupations(
            self.cluster.size, now, self._occupations(now)
        )
        order = self.ordered_queue(now)
        to_start = []
        for rank, job in enumerate(order):
            if rank < self.depth:
                # reserved tier: earliest fit, blocks later jobs
                start = profile.earliest_fit(job.nodes, job.wcl, now)
                profile.reserve_fitted(start, start + job.wcl, job.nodes)
                if start <= now + EPS:
                    to_start.append((job, start))
            else:
                # backfill tier: start now or never (this event)
                if profile.min_available(now, now + job.wcl) >= job.nodes:
                    profile.reserve_fitted(now, now + job.wcl, job.nodes)
                    to_start.append((job, now))
        for job, start in to_start:
            if start > now and not self.cluster.fits(job):
                # startable only through the EPS slack: the freeing
                # completion sits a hair in the future; the pass at that
                # event re-places and starts it
                continue
            self.start(job, now)
