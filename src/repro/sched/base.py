"""Scheduler base class: shared queue/bookkeeping machinery.

Concrete policies override :meth:`schedule` (and optionally the enqueue /
completion hooks).  The base class owns:

* the waiting-job list,
* the fairshare usage tracker and its daily decay tick,
* start bookkeeping (usage charging, queue removal),
* the priority-order cache: sorting the queue is needed at every
  scheduling event (often several times per pass), but the fairshare order
  only changes when some user's decayed usage changes or the queue gains a
  member, so :meth:`ordered_queue` re-sorts only then and otherwise
  maintains the cached order under removals.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.engine import Engine
from ..core.events import EventKind
from ..core.job import Job
from ..obs import counters as _counters
from .fairshare import DAY, FairshareTracker
from .queues import (
    FairshareOrder,
    OrderingPolicy,
    SrptOrder,
    fcfs_order,
    shortest_first_order,
    widest_first_order,
)

#: priority keys :class:`BaseScheduler` understands, in catalog order
PRIORITY_POLICIES = ("fairshare", "fcfs", "spt", "srpt", "widest")


def _remove_identical(jobs: List[Job], job: Job) -> bool:
    """Remove ``job`` (the very object) from a list; True if found.

    ``list.remove`` falls back to the dataclass ``__eq__`` (a 15-field
    tuple build) for every non-identical element it scans past; queues
    hold each job object exactly once, so an identity scan suffices.
    """
    for i, candidate in enumerate(jobs):
        if candidate is job:
            del jobs[i]
            return True
    return False


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
        if priority == "fairshare":
            self.ordering: OrderingPolicy = FairshareOrder(self.tracker)
        elif priority == "fcfs":
            self.ordering = fcfs_order
        elif priority == "spt":
            self.ordering = shortest_first_order
        elif priority == "srpt":
            # remaining estimate = own wcl + chain tail; the engine owns the
            # chain bookkeeping, and it is attached before any ordering call
            self.ordering = SrptOrder(self)
        elif priority == "widest":
            self.ordering = widest_first_order
        else:
            raise ValueError(
                f"unknown priority policy: {priority!r}; "
                f"known: {', '.join(PRIORITY_POLICIES)}"
            )
        self.priority = priority
        self.queue: List[Job] = []
        self.engine: Optional[Engine] = None
        self._order_cache: Optional[List[Job]] = None
        self._order_version = -1

    # -- engine protocol ---------------------------------------------------------

    def attach(self, engine: Engine) -> None:
        self.engine = engine
        self.cluster = engine.cluster
        if self.tracker.decay_factor < 1.0:
            engine.add_timer(self.tracker.decay_interval, None, EventKind.DECAY_TICK)

    def enqueue(self, job: Job, now: float) -> None:
        self.queue.append(job)
        self._order_cache = None

    def on_completion(self, job: Job, now: float) -> None:
        self.tracker.job_finished(job, now)

    def on_timer(self, payload, now: float, kind: EventKind) -> None:
        if kind is EventKind.DECAY_TICK:
            self.tracker.decay(now)
            # keep ticking as long as anything remains to simulate
            if self.engine.events:
                self.engine.add_timer(
                    now + self.tracker.decay_interval, None, EventKind.DECAY_TICK
                )

    def schedule(self, now: float, reason: str) -> None:
        raise NotImplementedError

    # -- helpers for subclasses -----------------------------------------------------

    def start(self, job: Job, now: float) -> None:
        """Start a queued job: allocate, charge usage, drop from the queue."""
        if not _remove_identical(self.queue, job):
            raise ValueError(f"job {job.id} is not queued")
        c = _counters.ACTIVE
        if c is not None:
            c.hit("sched.start")
        self._drop_from_order(job)
        self.engine.start_job(job)
        self.tracker.job_started(job, now)

    def _drop_from_order(self, job: Job) -> None:
        """Keep the cached priority order valid across a queue removal
        (removal preserves the relative order of everyone else)."""
        if self._order_cache is not None:
            if not _remove_identical(self._order_cache, job):
                self._order_cache = None

    def _order_epoch(self, now: float) -> int:
        """The cache-invalidation version of the priority order.

        Fairshare priorities move with decayed usage; every other built-in
        order depends only on per-job constants, so membership changes (via
        ``enqueue``/``start``) are the only invalidation.  Subclasses with
        stateful orders (e.g. the virtual fair-share rank of FSP) override
        this to settle and expose their own version counter.
        """
        if self.priority == "fairshare":
            self.tracker.settle(now)
            return self.tracker.usage_version
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
