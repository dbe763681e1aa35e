"""Per-node list-scheduler reference for the hybrid fairness metric.

The schedule builder of Section 4.1 in its plainest form: one completion
time per node.  A job needing *N* nodes starts at the earliest instant
*N* nodes are simultaneously free (the N-th smallest free time), and
those N earliest-free nodes are then busy until start + runtime.

It keeps the full per-node vector (NumPy ``partition``/``argpartition``,
O(size) per placement) and shares no code with ``repro.core.listsched``,
whose :class:`FreeTimeline` and :class:`RunningTimeline` are checked
against it in ``tests/test_profile_reference.py``.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.core.job import Job


class ListScheduler:
    """Per-node free-time list scheduler for a ``size``-node machine."""

    __slots__ = ("size", "free_times")

    def __init__(self, size: int, now: float = 0.0) -> None:
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self.size = size
        self.free_times = np.full(size, float(now), dtype=np.float64)

    @classmethod
    def from_running(
        cls,
        size: int,
        now: float,
        running: Iterable[Tuple[int, float]],
    ) -> "ListScheduler":
        """Build the machine state from running jobs.

        ``running`` yields (nodes, expected_end) pairs; remaining nodes are
        free at ``now``.  Raises if the running set over-subscribes the
        machine.
        """
        sched = cls(size, now)
        pos = 0
        for nodes, end in running:
            if pos + nodes > size:
                raise ValueError(
                    f"running jobs over-subscribe the machine: {pos + nodes} > {size}"
                )
            sched.free_times[pos : pos + nodes] = max(end, now)
            pos += nodes
        return sched

    def place(self, nodes: int, duration: float, earliest: float = 0.0) -> float:
        """Place one job; returns its start time and occupies the nodes."""
        if nodes <= 0 or nodes > self.size:
            raise ValueError(f"cannot place {nodes} nodes on {self.size}-node machine")
        if duration < 0:
            raise ValueError("duration must be >= 0")
        ft = self.free_times
        if nodes == self.size:
            start = max(float(ft.max()), earliest)
            ft[:] = start + duration
            return start
        # earliest instant `nodes` nodes are simultaneously free = the
        # nodes-th smallest free time
        idx = np.argpartition(ft, nodes - 1)[:nodes]
        start = max(float(ft[idx].max()), earliest)
        ft[idx] = start + duration
        return start

    def start_time_of(
        self,
        jobs: Sequence[Job],
        target_id: int,
        now: float,
        use_wcl: bool = False,
    ) -> float:
        """Place ``jobs`` in order and return the start time of the job whose
        id is ``target_id``.

        Placement stops at the target: in list scheduling, jobs later in the
        order cannot change an earlier job's start.  Raises KeyError if the
        target is not present.
        """
        for job in jobs:
            dur = job.wcl if use_wcl else job.runtime
            start = self.place(job.nodes, dur, earliest=now)
            if job.id == target_id:
                return start
        raise KeyError(f"job {target_id} not in placement order")

    def schedule_all(
        self,
        jobs: Sequence[Job],
        now: float,
        use_wcl: bool = False,
    ) -> dict[int, float]:
        """Place every job in order; map of job id -> start time."""
        out: dict[int, float] = {}
        for job in jobs:
            dur = job.wcl if use_wcl else job.runtime
            out[job.id] = self.place(job.nodes, dur, earliest=now)
        return out

    def makespan(self) -> float:
        return float(self.free_times.max())

    def copy(self) -> "ListScheduler":
        clone = ListScheduler.__new__(ListScheduler)
        clone.size = self.size
        clone.free_times = self.free_times.copy()
        return clone
