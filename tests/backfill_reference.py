"""Full-pass references for the reservation-profile schedulers.

The production :class:`~repro.sched.depthk.DepthKScheduler` ends a pass
once no remaining job can start now, and
:class:`~repro.sched.conservative.ConservativeScheduler` keeps a
reservation in place without touching the profile when no earlier start
exists.  The subclasses here keep the plain loops those shortcuts replace:

* :class:`FullPassDepthK` places every queued job in priority order at
  every pass;
* :class:`FullCompressionConservative` releases, re-fits and re-reserves
  every queued job at every compression pass.

``tests/test_backfill_reference.py`` runs both sides on the same
workloads and requires the same digest, the same starts and, for the
conservative pair, the same reservations and profile after every pass.
"""

from __future__ import annotations

from heapq import heappush

from repro.core.profile import ReservationProfile
from repro.obs import counters as _counters
from repro.sched.conservative import EPS, ConservativeScheduler
from repro.sched.depthk import DepthKScheduler


class FullPassDepthK(DepthKScheduler):
    """Depth-k backfilling that places the whole queue at every pass."""

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


class FullCompressionConservative(ConservativeScheduler):
    """Conservative backfilling whose compression re-places every job."""

    def _improve(self, now: float) -> None:
        """Compression: each job re-places into the earliest fit, in priority
        order.  Removing a reservation before re-placing guarantees the new
        start is never later than the old one."""
        c = _counters.ACTIVE
        if c is not None:
            c.hit("cons.compress")
        profile = self.profile
        reservations = self.reservations
        moved = False
        for job in self.ordered_queue(now):
            old_start, old_end = reservations[job.id]
            nodes = job.nodes
            profile.release_reserved(max(old_start, now), old_end, nodes)
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
        self._compact_heaps()
