"""Full-pass references for the backfilling schedulers.

The production :class:`~repro.sched.depthk.DepthKScheduler` ends a pass
once no remaining job can start now, and
:class:`~repro.sched.conservative.ConservativeScheduler` keeps a
reservation in place without touching the profile when no earlier start
exists.  The subclasses here keep the plain loops those shortcuts replace:

* :class:`FullPassDepthK` places every queued job in priority order at
  every pass, on a profile it builds from its own per-job predicted ends
  (:class:`PredictedEnds`), not from the shared
  :class:`~repro.sched.conservative.RunningProfile`;
* :class:`FullCompressionConservative` releases, re-fits and re-reserves
  every queued job at every compression pass;
* :class:`FullPassNoGuarantee` runs the CPlant scheduler's greedy rounds
  at every pass, including the passes the production scheduler skips as
  idle.

``tests/test_backfill_reference.py`` runs both sides on the same
workloads and requires the same digest, the same starts and, for the
conservative pair, the same reservations and profile after every pass;
``tests/test_noguarantee_skip.py`` does the same for the CPlant pair.
"""

from __future__ import annotations

from heapq import heappush

from repro.core.profile import ProfileError, ReservationProfile
from repro.obs import counters as _counters
from repro.sched.conservative import (
    EPS,
    OVERRUN_EXTENSION,
    ConservativeScheduler,
)
from repro.sched.depthk import DepthKScheduler
from repro.sched.noguarantee import NoGuaranteeScheduler


def from_occupations(size, origin, occupations):
    """A profile with ``(nodes, end)`` occupations all starting at
    ``origin``, built in one sorted pass."""
    by_end = {}
    busy = 0
    for nodes, end in occupations:
        busy += nodes
        by_end[end] = by_end.get(end, 0) + nodes
    if busy > size:
        raise ProfileError(f"occupations over-subscribe the profile: "
                           f"{busy} > {size}")
    times = [origin]
    avail = [size - busy]
    for end in sorted(by_end):
        if end <= origin:
            raise ProfileError(f"occupation end {end} not after {origin}")
        times.append(end)
        avail.append(avail[-1] + by_end[end])
    profile = ReservationProfile(size, origin)
    profile.times = times
    profile.avail = avail
    return profile


class PredictedEnds:
    """Depth-k's running-job bookkeeping as a plain per-job dict: each
    start predicts ``now + wcl``, and a job still running at its
    prediction is predicted to end ``OVERRUN_EXTENSION`` after ``now``."""

    def __init__(self, *args, **kw) -> None:
        super().__init__(*args, **kw)
        self.predicted_end = {}

    def start(self, job, now):
        super().start(job, now)
        self.predicted_end[job.id] = now + job.wcl

    def on_completion(self, job, now):
        super().on_completion(job, now)
        del self.predicted_end[job.id]

    def _occupations(self, now):
        """(nodes, predicted end) per running job, refreshing overrun
        predictions in place."""
        predicted = self.predicted_end
        for rj in self.cluster.running_jobs():
            pe = predicted[rj.id]
            if pe <= now:
                pe = now + OVERRUN_EXTENSION
                predicted[rj.id] = pe
            yield rj.nodes, pe


class FullPassDepthK(PredictedEnds, DepthKScheduler):
    """Depth-k backfilling that places the whole queue at every pass."""

    def schedule(self, now: float, reason: str) -> None:
        profile = from_occupations(
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


class FullCompressionConservative(ConservativeScheduler):
    """Conservative backfilling whose compression re-places every job."""

    def _improve(self, now: float) -> None:
        """Compression: each job re-places into the earliest fit, in priority
        order.  Removing a reservation before re-placing guarantees the new
        start is never later than the old one; a reservation due already
        (start ``<= now``) cannot start earlier and stays."""
        c = _counters.ACTIVE
        if c is not None:
            c.hit("cons.compress")
        profile = self.profile
        reservations = self.reservations
        moved = False
        for job in self.ordered_queue(now):
            old_start, old_end = reservations[job.id]
            if old_start <= now:
                continue
            nodes = job.nodes
            profile.release_reserved(old_start, old_end, nodes)
            start = profile.earliest_fit(nodes, job.wcl, now)
            if start > old_start + EPS:
                raise RuntimeError(
                    f"compression worsened job {job.id}: {old_start} -> {start}"
                )
            end = start + job.wcl
            profile.reserve_fitted(start, end, nodes)
            if start != old_start:
                reservations[job.id] = (start, end)
                heappush(self._res_heap, (start, job.id))
                if c is not None:
                    c.hit("cons.heap_push")
                moved = True
        # if nobody moved, every job is provably at its earliest fit given
        # the others; future passes are no-ops until the next release
        self._holes_dirty = moved
        self._compact_res_heap()


class FullPassNoGuarantee(NoGuaranteeScheduler):
    """The CPlant scheduler without the idle-pass skip."""

    def schedule(self, now: float, reason: str) -> None:
        while self._one_round(now):
            pass
