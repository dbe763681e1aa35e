"""Conservative backfilling with fairshare queue priority (Section 5.3).

Every job receives an internal reservation the moment it arrives (earliest
fit in the availability profile using its wall-clock limit).  At each
scheduling event the queue is processed in fairshare priority order and
each job tries to *improve* its reservation; a reservation is never made
worse, so the arrival-time reservation is an upper bound on the wait — no
starvation queue needed.

Inaccurate user estimates make this interesting in two directions:

* jobs finishing *early* leave holes; the improvement pass ("compression")
  lets queued jobs slide into them, with the fairshare order deciding who
  gets first pick — this is where the queue priority still matters;
* jobs running *past* their estimate (CPlant allowed this) invalidate the
  profile; we then rebuild it, bumping the overrunning job's predicted end
  by ``OVERRUN_EXTENSION`` at each event until it actually finishes, the
  standard trick in backfilling simulators.  :class:`RunningProfile` keeps
  those predictions for this scheduler and for depth-k backfilling.

Hot-path engineering (results are byte-identical to the straightforward
implementation; the digest regression tests enforce this):

* an overrun shows as the running profile's availability at ``now``
  differing from the cluster's free nodes, and an overdue reservation is
  read from the top of a lazily-invalidated min-heap of reservation
  starts, so neither scans the running jobs or the queue at every event;
* the compression pass is skipped outright when the profile cannot have
  gained availability since the last pass (no early-finish release and no
  prior in-pass movement) — re-placing every job would reproduce the same
  reservations, because a pass that moves nobody proves each job is at its
  earliest fit given all the others;
* a job reserved in the future asks ``earliest_fit(..., before=old_start)``
  with its reservation still in place; ``None`` keeps the reservation
  without touching the profile (``tests/backfill_reference.py`` keeps the
  release/fit/reserve loop as the reference);
* profile mutations (``reserve_fitted``/``release_reserved``) skip the
  over-subscription check: every reserve follows an ``earliest_fit``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Tuple

from ..core.cluster import Cluster
from ..core.job import Job
from ..core.profile import ReservationProfile
from ..obs import counters as _counters
from .base import BaseScheduler

#: float-comparison slack for "reservation time has arrived"
EPS = 1e-6

#: how far past ``now`` an overrunning job's predicted end moves each time
#: a pass finds it still running after its prediction
OVERRUN_EXTENSION = 900.0


class RunningProfile:
    """The running jobs' occupations, each up to its predicted end.

    One persistent running-only :class:`ReservationProfile`, updated on
    start, completion and overrun; the reservation schedulers read it
    instead of rebuilding it from the running set at every event.  A job
    holds ``[start, end)`` for the ``end`` its scheduler predicted.  A job
    still running at its predicted end drops out of the profile while the
    cluster still counts it busy; :meth:`refresh` spots that mismatch and
    moves every such prediction to ``now + OVERRUN_EXTENSION``.

    Callers update it only after :meth:`Cluster.start` has accepted the
    job, so the trusted reserve here can never over-subscribe.
    """

    __slots__ = ("cluster", "profile", "ends")

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self.profile = ReservationProfile(cluster.size)
        #: running job id -> predicted end
        self.ends: Dict[int, float] = {}

    def start(self, job: Job, now: float, end: float) -> None:
        self.ends[job.id] = end
        if end > now:
            self.profile.reserve_fitted(now, end, job.nodes)

    def finish(self, job: Job, now: float) -> float:
        """Drop a completed job and return its predicted end; the part of
        its occupation after ``now`` is released."""
        end = self.ends.pop(job.id)
        if end > now:
            self.profile.release_reserved(now, end, job.nodes)
        return end

    def refresh(self, now: float) -> bool:
        """Advance to ``now`` and move every prediction that has passed to
        ``now + OVERRUN_EXTENSION``; True iff one moved."""
        profile = self.profile
        profile.advance(now)
        # after advance the head segment is the one holding ``now``
        if profile.avail[0] == self.cluster.free_nodes:
            return False
        ends = self.ends
        bumped = now + OVERRUN_EXTENSION
        nodes = 0
        for job in self.cluster.running_jobs():
            if ends[job.id] <= now:
                ends[job.id] = bumped
                nodes += job.nodes
        profile.reserve_fitted(now, bumped, nodes)
        return True

    def at(self, now: float) -> ReservationProfile:
        """A copy of the profile whose first segment starts at ``now``."""
        self.profile.advance(now)
        p = ReservationProfile(self.cluster.size, now)
        p.times = self.profile.times[:]
        p.avail = self.profile.avail[:]
        p.times[0] = now
        return p


class ConservativeScheduler(BaseScheduler):
    """Conservative backfilling; ``priority`` picks the improvement order."""

    def __init__(self, priority: str = "fairshare", **kw) -> None:
        super().__init__(priority=priority, **kw)
        self.name = f"cons.{priority}"
        self.profile: ReservationProfile | None = None
        #: queued-job reservations: job id -> (start, end)
        self.reservations: Dict[int, Tuple[float, float]] = {}
        #: running jobs' occupations up to their predicted ends
        self.running: RunningProfile | None = None
        #: min-heap over (reservation start, job id); entries are
        #: invalidated lazily against ``reservations``, so an update pushes
        self._res_heap: List[Tuple[float, int]] = []
        #: True iff the profile may have gained availability since the last
        #: compression pass (early-finish release, or that pass moved a job)
        self._holes_dirty = False

    def attach(self, engine) -> None:
        super().attach(engine)
        self.profile = ReservationProfile(self.cluster.size)
        self.running = RunningProfile(self.cluster)

    # -- bookkeeping -----------------------------------------------------------

    def enqueue(self, job: Job, now: float) -> None:
        super().enqueue(job, now)
        start = self.profile.earliest_fit(job.nodes, job.wcl, now)
        end = start + job.wcl
        self.profile.reserve_fitted(start, end, job.nodes)
        self.reservations[job.id] = (start, end)
        heappush(self._res_heap, (start, job.id))
        c = _counters.ACTIVE
        if c is not None:
            c.hit("cons.heap_push")

    def start(self, job: Job, now: float) -> None:
        # the reservation interval simply becomes the running occupation
        res_start, res_end = self.reservations.pop(job.id)
        if res_start > now + EPS:
            raise RuntimeError(
                f"job {job.id} started before its reservation ({res_start} > {now})"
            )
        super().start(job, now)
        self.running.start(job, now, res_end)

    def on_completion(self, job: Job, now: float) -> None:
        super().on_completion(job, now)
        end = self.running.finish(job, now)
        if end > now:
            # finished early: give the hole back
            self.profile.release_reserved(now, end, job.nodes)
            self._holes_dirty = True

    # -- scheduling pass -----------------------------------------------------------

    def schedule(self, now: float, reason: str) -> None:
        self.profile.advance(now)
        if self.running.refresh(now) or self._has_overdue(now):
            self._rebuild(now)
        elif reason == "completion":
            if self._holes_dirty:
                self._improve(now)
            else:
                c = _counters.ACTIVE
                if c is not None:
                    c.hit("cons.compress_skipped")
        self._start_due(now)

    def _has_overdue(self, now: float) -> bool:
        """A reservation whose start slid into the past without the job
        starting: only possible after an overrun stall (the reservation was
        anchored at a bumped prediction no event ever fired at).  The
        no-worsening contract of the improvement pass does not apply; the
        schedule must be rebuilt."""
        heap = self._res_heap
        res = self.reservations
        threshold = now - EPS
        while heap:
            s, jid = heap[0]
            r = res.get(jid)
            if r is None or r[0] != s:
                heappop(heap)  # started or re-placed since pushed
                continue
            return s < threshold
        return False

    def _compact_res_heap(self) -> None:
        """Drop accumulated stale entries so rebuild-heavy runs stay lean."""
        if len(self._res_heap) > 2 * len(self.reservations) + 64:
            self._res_heap = [
                (s, jid) for s, jid in self._res_heap
                if (r := self.reservations.get(jid)) is not None and r[0] == s
            ]
            self._res_heap.sort()
            c = _counters.ACTIVE
            if c is not None:
                c.hit("cons.heap_compact")

    def _rebuild(self, now: float) -> None:
        """Recompute the whole profile: the running profile, then queued
        reservations re-placed in priority order.  Every job lands at its
        earliest fit given all its predecessors, so the resulting schedule
        is stable — no compression pass can improve it until some release
        frees new room."""
        profile = self.running.at(now)
        self.profile = profile
        reservations: Dict[int, Tuple[float, float]] = {}
        res_heap = self._res_heap
        for job in self.ordered_queue(now):
            start = profile.earliest_fit(job.nodes, job.wcl, now)
            end = start + job.wcl
            profile.reserve_fitted(start, end, job.nodes)
            reservations[job.id] = (start, end)
            heappush(res_heap, (start, job.id))
        self.reservations = reservations
        self._holes_dirty = False
        c = _counters.ACTIVE
        if c is not None:
            c.hit("cons.rebuild")
            c.hit("cons.heap_push", len(reservations))
        self._compact_res_heap()

    def _improve(self, now: float) -> None:
        """Compression: each job re-places into the earliest fit, in priority
        order, and never later than its current reservation.

        A reservation due already (start ``<= now``) stays: no start can be
        earlier than ``now``.  A job reserved in the future asks for a fit
        that starts before its reservation, with that reservation still in
        place: the part of any such window past the old start lies inside
        the job's own rectangle, so the answer equals the fit after a
        release.  No answer means the job stays put and the profile is not
        touched (a release and re-reserve would rebuild the same lists).
        """
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
            start = profile.earliest_fit(nodes, job.wcl, now, old_start)
            if start is None:
                if c is not None:
                    c.hit("cons.compress_kept")
                continue
            profile.release_reserved(old_start, old_end, nodes)
            end = start + job.wcl
            profile.reserve_fitted(start, end, nodes)
            reservations[job.id] = (start, end)
            heappush(self._res_heap, (start, job.id))
            if c is not None:
                c.hit("cons.heap_push")
            moved = True
        # if nobody moved, every job is provably at its earliest fit given
        # the others; future passes are no-ops until the next release
        self._holes_dirty = moved
        self._compact_res_heap()

    def _start_due(self, now: float) -> None:
        reservations = self.reservations
        threshold = now + EPS
        due = [
            job for job in self.queue
            if reservations[job.id][0] <= threshold
        ]
        if not due:
            return
        due.sort(key=lambda j: (reservations[j.id][0], j.submit_time, j.id))
        for job in due:
            if not self.cluster.fits(job):
                if reservations[job.id][0] > now:
                    # due only through the EPS slack: the reservation sits
                    # a hair in the future and the freeing completion has
                    # not fired yet; the pass at that event starts it
                    continue
                raise RuntimeError(
                    f"profile/cluster disagree: job {job.id} reserved at "
                    f"{reservations[job.id][0]} but only "
                    f"{self.cluster.free_nodes} nodes free at {now}"
                )
            self.start(job, now)
