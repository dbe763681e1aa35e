"""Queue ordering policies.

Two orders matter in the paper: FCFS (arrival order; the starvation queue
and the classic baselines) and fairshare (decayed per-user usage; the main
CPlant queue).  The size-based orders (shortest/widest/SRPT) drive the
extension policies of the fairness matrix.  An order is a function of
``(jobs, now)`` producing a sorted job list, deterministic with
(submit_time, id) tie-breaks; per-run state it reads comes first, bound
with ``functools.partial``.  :class:`UserLanes` keeps the same waiting
jobs as per-user FCFS lanes, for readers that go user by user: every
scheduler keeps its queue in one, from which :func:`fairshare_order`
ranks users rather than jobs, and ``rr.user`` rotates over its lane heads.
"""

from __future__ import annotations

from bisect import insort
from operator import attrgetter
from typing import Callable, Dict, Iterable, List

from ..core.job import Job

#: ordering callable signature: (jobs, now) -> sorted list
OrderingPolicy = Callable[[Iterable[Job], float], List[Job]]

_BY_ID = attrgetter("id")
_BY_SUBMIT = attrgetter("submit_time")


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


def cut_after(order: List[Job], target: Job) -> List[Job]:
    """Truncate ``order`` in place just after ``target`` (the very object)
    and return it; the search runs from the back, where an arriving job
    usually sits."""
    for i in range(len(order) - 1, -1, -1):
        if order[i] is target:
            del order[i + 1:]
            return order
    raise ValueError(f"job {target.id} is not in the order")


def fcfs_order(jobs: Iterable[Job], now: float) -> List[Job]:
    """First-come-first-serve: by submit time, then id.

    Two stable passes on scalar attribute keys (id, then submit time)
    give the ``(submit_time, id)`` order without building a tuple per
    job, and every comparison is a C-level int or float compare.  Orders
    whose primary key is per job or per user re-sort this list stably.
    """
    out = sorted(jobs, key=_BY_ID)
    out.sort(key=_BY_SUBMIT)
    return out


class UserLanes:
    """Waiting jobs as per-user FCFS lanes.

    ``lanes`` maps every user with waiting jobs to those jobs in
    ``(submit_time, id)`` order, head at ``[0]``; ``users`` lists the same
    users ascending.  A job joins its lane when it is queued and leaves
    when it starts, so readers take lane heads or whole lanes without
    rescanning the queue.
    """

    __slots__ = ("lanes", "users")

    def __init__(self) -> None:
        self.lanes: Dict[int, List[Job]] = {}
        self.users: List[int] = []

    def add(self, job: Job) -> None:
        lane = self.lanes.get(job.user_id)
        if lane is None:
            lane = self.lanes[job.user_id] = []
            insort(self.users, job.user_id)
        # arrivals come in near-FCFS order, so this is an append in practice
        key = (job.submit_time, job.id)
        i = len(lane)
        while i > 0 and (lane[i - 1].submit_time, lane[i - 1].id) > key:
            i -= 1
        lane.insert(i, job)

    def remove(self, job: Job) -> None:
        lane = self.lanes[job.user_id]
        _remove_identical(lane, job)
        if not lane:
            del self.lanes[job.user_id]
            self.users.remove(job.user_id)


def fairshare_order(tracker, lanes: UserLanes, jobs: Iterable[Job],
                    now: float) -> List[Job]:
    """Fairshare order of a scheduler's queue, from its lanes.

    The scheduler's :class:`UserLanes` hold exactly its queue, so the
    order is built user by user from them
    (:meth:`~repro.sched.fairshare.FairshareTracker.order`) and the
    ``jobs`` argument is not read.
    """
    return tracker.order(lanes, now)


def widest_first_order(jobs: Iterable[Job], now: float) -> List[Job]:
    """Widest-job-first (extension policy, not in the paper's evaluation)."""
    return sorted(jobs, key=lambda j: (-j.nodes, j.submit_time, j.id))


def shortest_first_order(jobs: Iterable[Job], now: float) -> List[Job]:
    """Shortest-estimate-first (extension policy)."""
    return sorted(jobs, key=lambda j: (j.wcl, j.submit_time, j.id))


def srpt_order(tail_wcl: Dict[int, float], jobs: Iterable[Job],
               now: float) -> List[Job]:
    """Shortest-remaining-estimate-first.

    A queued job's remaining estimate is its own wall-clock limit plus the
    estimates of the chunks still behind it in a runtime-limit chain
    (``tail_wcl``, the engine's job id -> chain tail map), so a split job
    that already burned most of its chain ranks ahead of a fresh one of
    the same total length.  Both components are fixed once the job is
    enqueued, so the order only changes with queue membership.
    """
    tail = tail_wcl.get
    return sorted(
        jobs, key=lambda j: (j.wcl + tail(j.id, 0.0), j.submit_time, j.id)
    )

