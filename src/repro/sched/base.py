"""Scheduler base class: shared queue/bookkeeping machinery.

Concrete policies override :meth:`schedule` (and optionally the enqueue /
completion hooks).  The base class owns:

* the waiting-job list, and the same jobs as per-user FCFS lanes
  (a :class:`UserLanes`, read by the fairshare order and by ``rr.user``),
* the fairshare usage tracker and its daily decay tick,
* start bookkeeping (usage charging, queue and lane removal, the
  ``started`` list the engine launches after each pass),
* the priority order (:data:`PRIORITY_POLICIES`); for ``fsp`` also the
  fluid machine of :mod:`.sizebased` that ranks jobs, fed each arrival,
* the priority-order cache: sorting the queue is needed at every
  scheduling event (often several times per pass), but the fairshare order
  only changes when some user's decayed usage changes or the queue gains a
  member, so :meth:`ordered_queue` re-sorts only then and otherwise
  maintains the cached order under removals.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional

from ..core.engine import Engine
from ..core.events import EventKind
from ..core.job import Job, JobState
from ..obs import counters as _counters
from .fairshare import DAY, FairshareTracker
from .queues import (
    OrderingPolicy,
    UserLanes,
    _remove_identical,
    fairshare_order,
    fcfs_order,
    shortest_first_order,
    srpt_order,
    widest_first_order,
)
from .sizebased import VirtualFairShare, fsp_order

#: priority keys :class:`BaseScheduler` understands, in catalog order
PRIORITY_POLICIES = ("fairshare", "fcfs", "spt", "srpt", "widest", "fsp")


class BaseScheduler:
    """Common scaffolding for all policies in this package."""

    #: human-readable policy name; subclasses override.
    name = "base"

    def __init__(
        self,
        priority: str = "fairshare",
        decay_factor: float = 0.5,
        decay_interval: float = DAY,
    ) -> None:
        self.tracker = FairshareTracker(decay_factor, decay_interval)
        self.queue: List[Job] = []
        #: ``queue`` as per-user FCFS lanes
        self.lanes = UserLanes()
        # per-run state is bound with partial: deepcopy copies its
        # arguments, so a forked scheduler's order reads the fork's state
        if priority == "fairshare":
            self.ordering: Optional[OrderingPolicy] = partial(
                fairshare_order, self.tracker, self.lanes
            )
        elif priority == "fcfs":
            self.ordering = fcfs_order
        elif priority == "spt":
            self.ordering = shortest_first_order
        elif priority in ("srpt", "fsp"):
            # bound to the engine's chain tails / a fresh fluid machine
            # in attach
            self.ordering = None
        elif priority == "widest":
            self.ordering = widest_first_order
        else:
            raise ValueError(
                f"unknown priority policy: {priority!r}; "
                f"known: {', '.join(PRIORITY_POLICIES)}"
            )
        self.priority = priority
        #: jobs started since the engine last launched a pass's starts
        self.started: List[Job] = []
        self._order_cache: Optional[List[Job]] = None
        self._order_version = -1

    # -- engine protocol ---------------------------------------------------------

    def attach(self, engine: Engine) -> None:
        """Take the cluster and the event queue from ``engine``; the
        scheduler keeps no engine."""
        self.cluster = engine.cluster
        self.events = engine.events
        if self.priority == "srpt":
            self.ordering = partial(srpt_order, engine.tail_wcl)
        elif self.priority == "fsp":
            self.vfs = VirtualFairShare(engine.cluster.size)
            self.ordering = partial(fsp_order, self.vfs)
        if self.tracker.decay_factor < 1.0:
            self.events.push(self.tracker.decay_interval, EventKind.DECAY_TICK)

    def enqueue(self, job: Job, now: float) -> None:
        self.queue.append(job)
        self.lanes.add(job)
        self._order_cache = None
        if self.priority == "fsp":
            self.vfs.add(job, now)

    def on_completion(self, job: Job, now: float) -> None:
        self.tracker.job_finished(job, now)

    def on_timer(self, payload, now: float, kind: EventKind) -> None:
        if kind is EventKind.DECAY_TICK:
            self.tracker.decay(now)
            # keep ticking as long as anything remains to simulate
            if self.events:
                self.events.push(
                    now + self.tracker.decay_interval, EventKind.DECAY_TICK
                )

    def schedule(self, now: float, reason: str) -> None:
        raise NotImplementedError

    # -- helpers for subclasses -----------------------------------------------------

    def start(self, job: Job, now: float) -> None:
        """Start a queued job: drop it from the queue and its lane, then
        :meth:`_allocate` it."""
        if not _remove_identical(self.queue, job):
            raise ValueError(f"job {job.id} is not queued")
        self.lanes.remove(job)
        self._drop_from_order(job)
        self._allocate(job, now)

    def _allocate(self, job: Job, now: float) -> None:
        """Allocate the job's nodes, charge its usage and list it in
        ``started``, which the engine launches after the pass."""
        if job.state is not JobState.QUEUED:
            raise RuntimeError(f"cannot start job {job.id} in state {job.state}")
        c = _counters.ACTIVE
        if c is not None:
            c.hit("sched.start")
        self.cluster.start(job, now)
        self.started.append(job)
        self.tracker.job_started(job, now)

    def _drop_from_order(self, job: Job) -> None:
        """Keep the cached priority order valid across a queue removal
        (removal preserves the relative order of everyone else)."""
        if self._order_cache is not None:
            if not _remove_identical(self._order_cache, job):
                self._order_cache = None

    def _order_epoch(self, now: float) -> int:
        """The cache-invalidation version of the priority order.

        Fairshare priorities move with decayed usage and FSP ranks with
        the fluid machine's drain; every other built-in order depends only
        on per-job constants, so membership changes (via
        ``enqueue``/``start``) are the only invalidation.
        """
        if self.priority == "fairshare":
            self.tracker.settle(now)
            return self.tracker.usage_version
        if self.priority == "fsp":
            self.vfs.settle(now)
            return self.vfs.version
        return 0

    def ordered_queue(self, now: float) -> List[Job]:
        """The queue in priority order; cached between usage changes.

        Callers may iterate the returned list but must not mutate it; a
        concurrent :meth:`start` edits it in place (by design, so loops of
        the form "re-fetch order, start one job" stay O(queue) per round).
        """
        version = self._order_epoch(now)
        c = _counters.ACTIVE
        if self._order_cache is not None and self._order_version == version:
            if c is not None:
                c.hit("sched.order_cache_hit")
            return self._order_cache
        if c is not None:
            c.hit("sched.order_sort")
        self._order_cache = self.ordering(self.queue, now)
        self._order_version = version
        return self._order_cache

    def waiting_jobs(self) -> List[Job]:
        """All jobs the scheduler is holding (subclasses with secondary
        queues extend this); used by fairness observers and LOC."""
        return list(self.queue)
