"""Queue ordering policies.

Two orders matter in the paper: FCFS (arrival order; the starvation queue
and the classic baselines) and fairshare (decayed per-user usage; the main
CPlant queue).  The size-based orders (shortest/widest/SRPT) drive the
extension policies of the fairness matrix.  A policy is just a callable
producing a sorted job list; all are deterministic with (submit_time, id)
tie-breaks.
"""

from __future__ import annotations

from typing import Callable, Iterable, List

from ..core.job import Job
from .fairshare import FairshareTracker

#: ordering callable signature: (jobs, now) -> sorted list
OrderingPolicy = Callable[[Iterable[Job], float], List[Job]]


def fcfs_order(jobs: Iterable[Job], now: float) -> List[Job]:
    """First-come-first-serve: by submit time, then id."""
    return sorted(jobs, key=lambda j: (j.submit_time, j.id))


class FairshareOrder:
    """Fairshare order bound to a live usage tracker.

    A callable object rather than a closure so that a deep-copied
    scheduler (``Engine.fork()``) re-binds to its *own* tracker copy —
    ``copy.deepcopy`` treats plain functions as atomic, which would leave
    a closure pointing at the original tracker.
    """

    __slots__ = ("tracker",)

    def __init__(self, tracker: FairshareTracker) -> None:
        self.tracker = tracker

    def __call__(self, jobs: Iterable[Job], now: float) -> List[Job]:
        return self.tracker.order(jobs, now)


def widest_first_order(jobs: Iterable[Job], now: float) -> List[Job]:
    """Widest-job-first (extension policy, not in the paper's evaluation)."""
    return sorted(jobs, key=lambda j: (-j.nodes, j.submit_time, j.id))


def shortest_first_order(jobs: Iterable[Job], now: float) -> List[Job]:
    """Shortest-estimate-first (extension policy)."""
    return sorted(jobs, key=lambda j: (j.wcl, j.submit_time, j.id))


class SrptOrder:
    """Shortest-remaining-estimate-first bound to a chain-tail oracle.

    A queued job's remaining estimate is its own wall-clock limit plus the
    estimates of the chunks still behind it in a runtime-limit chain, so a
    split job that already burned most of its chain ranks ahead of a fresh
    one of the same total length.  Both components are fixed once the job
    is enqueued, so the order only changes with queue membership.

    A callable object for the same fork-safety reason as
    :class:`FairshareOrder`: the oracle owner must follow the scheduler
    through ``copy.deepcopy``.
    """

    __slots__ = ("scheduler",)

    def __init__(self, scheduler) -> None:
        self.scheduler = scheduler

    def __call__(self, jobs: Iterable[Job], now: float) -> List[Job]:
        chain_tail = self.scheduler.engine.chain_tail_wcl
        return sorted(
            jobs, key=lambda j: (j.wcl + chain_tail(j), j.submit_time, j.id)
        )

