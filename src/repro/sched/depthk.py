"""Reservation-depth-k backfilling.

The paper (Section 1): "Many production schedulers use variations between
conservative and aggressive backfilling, giving the first n jobs in the
queue a reservation."  This scheduler is that whole family:

* depth 0  — no-guarantee backfilling (no reservations at all),
* depth k  — the first k jobs in priority order hold reservations,
* depth ∞  — conservative backfilling with dynamic reservations: the
  paper's ``consdyn`` policies (Section 5.4), named ``consdyn.<priority>``.

Depth 1 is close to EASY but is not EASY
(:class:`repro.sched.EasyBackfillScheduler`): depth k gives its k
reservations to the top k jobs in priority order, counting jobs that
start in this pass, while EASY reserves for the first *blocked* job.
When the top job starts, depth 1 has spent its reservation and the next
blocked job is unprotected (``tests/test_depthk.py`` pins such a case).

At every scheduling event the pass copies the persistent running-job
profile (:class:`repro.sched.conservative.RunningProfile`, the occupations
with their overrun-extended predicted ends) and adds earliest-fit
reservations for the first ``depth`` queued jobs in priority order; any
other job may start immediately if it fits the profile (i.e. delays none
of those reservations).  Reservations are not sticky across events, which
keeps the family uniform in one mechanism: at depth ∞ every queued job is
re-placed in priority order at every event, so a job's place in the
schedule tracks its user's current fairshare standing and "fair" jobs
cannot starve.  The sticky-reservation end of the spectrum is
:class:`repro.sched.ConservativeScheduler`.

A pass's only output is which jobs start now, and every reservation only
lowers the profile.  A job can start now only while its nodes stay free
over ``[now + EPS, now + wcl)`` (both the reserved tier's ``start <= now
+ EPS`` and the backfill tier's ``min_available`` test imply it), so the
pass keeps the jobs that still pass that test and ends once none ranks
after the current job: the jobs after it cannot change the outcome.
``tests/backfill_reference.py`` keeps the full pass as the reference.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

from ..core.job import Job
from ..obs import counters as _counters
from .base import BaseScheduler
from .conservative import EPS, RunningProfile


class DepthKScheduler(BaseScheduler):
    """Backfilling with reservations for the first ``depth`` queued jobs."""

    def __init__(
        self,
        depth: int | float = 1,
        priority: str = "fairshare",
        **kw,
    ) -> None:
        super().__init__(priority=priority, **kw)
        if isinstance(depth, float) and not math.isinf(depth):
            raise ValueError("depth must be an int or math.inf")
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
        self.depth = depth
        self.name = (
            f"consdyn.{priority}" if math.isinf(depth)
            else f"depth{depth}.{priority}"
        )
        self.running: RunningProfile | None = None

    def attach(self, engine) -> None:
        super().attach(engine)
        self.running = RunningProfile(self.cluster)

    def on_completion(self, job: Job, now: float) -> None:
        super().on_completion(job, now)
        self.running.finish(job, now)

    def start(self, job: Job, now: float) -> None:
        super().start(job, now)
        self.running.start(job, now, now + job.wcl)

    def schedule(self, now: float, reason: str) -> None:
        self.running.refresh(now)
        profile = self.running.at(now)
        order = self.ordered_queue(now)
        threshold = now + EPS
        # (rank, nodes, now + wcl) of every job that may still start now;
        # the running-only profile never decreases, so its level at the
        # threshold is each window's minimum
        free = profile.available_at(threshold)
        cands = [
            (rank, job.nodes, now + job.wcl)
            for rank, job in enumerate(order) if job.nodes <= free
        ]
        horizon = max([end for _, _, end in cands], default=now)
        ci = 0  # cands[ci:] are the candidates from the current rank on
        to_start = []
        for rank, job in enumerate(order):
            if ci == len(cands):
                # no job from here on can start now: placing them
                # changes nothing
                c = _counters.ACTIVE
                if c is not None:
                    c.hit("depthk.pass_cut", len(order) - rank)
                break
            is_cand = cands[ci][0] == rank
            if is_cand:
                ci += 1
            if rank < self.depth:
                # reserved tier: earliest fit, blocks later jobs
                start = profile.earliest_fit(job.nodes, job.wcl, now)
                profile.reserve_fitted(start, start + job.wcl, job.nodes)
                if start <= threshold:
                    to_start.append((job, start))
            elif is_cand and profile.min_available(now, now + job.wcl) >= job.nodes:
                # backfill tier: start now or never (this event)
                start = now
                profile.reserve_fitted(now, now + job.wcl, job.nodes)
                to_start.append((job, now))
            else:
                continue
            if start < horizon and ci < len(cands):
                cands = _still_startable(profile, threshold, cands[ci:], horizon)
                ci = 0
                horizon = max([end for _, _, end in cands], default=now)
        for job, start in to_start:
            if start > now and not self.cluster.fits(job):
                # startable only through the EPS slack: the freeing
                # completion sits a hair in the future; the pass at that
                # event re-places and starts it
                continue
            self.start(job, now)


def _still_startable(profile, threshold, cands, horizon):
    """The ``(rank, nodes, end)`` candidates whose window ``[threshold,
    end)`` still has ``nodes`` free everywhere.

    Reservations only lower the profile, so a candidate dropped here can
    never start in this pass.  One running minimum over the breakpoints
    before ``horizon`` (the latest candidate end) and one bisect per
    candidate give every window's minimum.
    """
    times = profile.times
    avail = profile.avail
    i0 = bisect_right(times, threshold) - 1
    stop = bisect_left(times, horizon, i0 + 1)
    lo = avail[i0]
    running_min = [lo]
    for k in range(i0 + 1, stop):
        a = avail[k]
        if a < lo:
            lo = a
        running_min.append(lo)
    first = i0 + 1
    return [
        cand for cand in cands
        if cand[2] <= threshold  # empty window: nothing can block it
        or running_min[bisect_left(times, cand[2], first, stop) - first] >= cand[1]
    ]
