"""No-backfill list scheduler over per-node free times.

This is the schedule builder behind the paper's hybrid fairness metric
(Section 4.1): it keeps one completion time per node; a job needing *N*
nodes starts at the earliest instant *N* nodes are simultaneously free
(the N-th smallest free time), and those N earliest-free nodes are then
busy until start + runtime.

Jobs are placed strictly in the order given, but a later job may still
start before an earlier one if enough *other* nodes free up sooner — the
paper's "fewer restraints than a no backfill scheduler".  Holes can never
be exploited (node availability is monotone per node), making it more
restrictive than conservative backfilling.

:class:`ListScheduler` keeps the full per-node vector (NumPy
``partition``/``argpartition``, O(size) per placement) and is the readable
reference implementation.  :class:`FreeTimeline` is the equivalent compact
form used on the simulator hot path: per-node free times are heavily
duplicated (at most one distinct value per running/placed job), so it
stores a sorted (time, count) multiset and places in O(distinct values)
— independent of machine size.  The two produce byte-identical start
times; ``tests/test_listsched.py`` checks them against each other.

:class:`RunningTimeline` is the persistent machine state the hybrid-FST
observer keeps across events: the running occupations as a sorted
(end, nodes) multiset, updated per start and completion, from which each
arrival's base :class:`FreeTimeline` is a copy clamped at ``now``.  The
cluster keeps one too, of expected ends (``start + wcl``), from which
:meth:`RunningTimeline.shadow` reads the EASY head reservation.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from ..obs import counters as _counters
from .job import Job

_INF = float("inf")


class FreeTimeline:
    """Sorted (free-time, node-count) multiset for a ``size``-node machine.

    Semantically identical to :class:`ListScheduler`: a job needing *N*
    nodes starts at the *N*-th smallest free time (ties between equal free
    times are interchangeable, so only the multiset matters), and those
    nodes become free again at start + duration.
    """

    __slots__ = ("size", "_times", "_counts")

    def __init__(self, size: int, now: float = 0.0) -> None:
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self.size = size
        self._times: List[float] = [float(now)]
        self._counts: List[int] = [size]

    @classmethod
    def from_pairs(
        cls,
        size: int,
        now: float,
        running: Iterable[Tuple[int, float]],
    ) -> "FreeTimeline":
        """Build the machine state from (nodes, free-at) pairs; remaining
        nodes are free at ``now``.  Raises if over-subscribed."""
        by_time = {}
        busy = 0
        now = float(now)
        for nodes, end in running:
            end = float(end)
            if end < now:
                end = now
            busy += nodes
            if end in by_time:
                by_time[end] += nodes
            else:
                by_time[end] = nodes
        if busy > size:
            raise ValueError(
                f"running jobs over-subscribe the machine: {busy} > {size}"
            )
        free = size - busy
        if free:
            if now in by_time:
                by_time[now] += free
            else:
                by_time[now] = free
        c = _counters.ACTIVE
        if c is not None:
            c.hit("listsched.rebuild")
        tl = cls.__new__(cls)
        tl.size = size
        tl._times = sorted(by_time)
        tl._counts = [by_time[t] for t in tl._times]
        return tl

    def place(self, nodes: int, duration: float, earliest: float = 0.0) -> float:
        """Place one job; returns its start time and occupies the nodes."""
        if nodes <= 0 or nodes > self.size:
            raise ValueError(f"cannot place {nodes} nodes on {self.size}-node machine")
        if duration < 0:
            raise ValueError("duration must be >= 0")
        c = _counters.ACTIVE
        if c is not None:
            c.hit("listsched.place")
        times = self._times
        counts = self._counts
        # the nodes-th smallest free time = max over the nodes earliest-free
        acc = 0
        i = 0
        while acc < nodes:
            acc += counts[i]
            i += 1
        start = times[i - 1]
        if earliest > start:
            start = earliest
        # consume the nodes earliest-free entries...
        if acc == nodes:
            del times[:i]
            del counts[:i]
        else:
            del times[: i - 1]
            del counts[: i - 1]
            counts[0] = acc - nodes
        # ...and return them at start + duration
        t = start + duration
        j = bisect_left(times, t)
        if j < len(times) and times[j] == t:
            counts[j] += nodes
        else:
            times.insert(j, t)
            counts.insert(j, nodes)
        return start

    def place_sequence(
        self, jobs: Sequence[Job], durations: Mapping[int, float], earliest: float
    ) -> float:
        """Place ``jobs`` in order, each for ``durations[job.id]`` and no
        earlier than ``earliest``; returns the last job's start.

        The fused form of one :meth:`place` per job, for trusted callers:
        no per-job validation, call or counter update (``listsched.place``
        is hit once, by the number placed).  ``jobs`` must be non-empty.
        """
        times = self._times
        counts = self._counts
        # a +inf sentinel (never consumed: the real counts sum to size)
        # lets the insertion read times[j] without a bounds check
        times.append(_INF)
        counts.append(0)
        for job in jobs:
            nodes = job.nodes
            acc = counts[0]
            if acc > nodes:
                # the earliest-free entry alone suffices (the common case)
                start = times[0]
                counts[0] = acc - nodes
            else:
                i = 1
                while acc < nodes:
                    acc += counts[i]
                    i += 1
                start = times[i - 1]
                if acc == nodes:
                    del times[:i]
                    del counts[:i]
                else:
                    i -= 1
                    del times[:i]
                    del counts[:i]
                    counts[0] = acc - nodes
            if earliest > start:
                start = earliest
            t = start + durations[job.id]
            j = bisect_left(times, t)
            if times[j] == t:
                counts[j] += nodes
            else:
                times.insert(j, t)
                counts.insert(j, nodes)
        del times[-1]
        del counts[-1]
        c = _counters.ACTIVE
        if c is not None:
            c.hit("listsched.place", len(jobs))
        return start

    def makespan(self) -> float:
        return self._times[-1]

    def free_time_values(self) -> List[float]:
        """The full per-node free-time multiset, sorted (for tests)."""
        out: List[float] = []
        for t, c in zip(self._times, self._counts):
            out.extend([t] * c)
        return out

    def copy(self) -> "FreeTimeline":
        clone = FreeTimeline.__new__(FreeTimeline)
        clone.size = self.size
        clone._times = list(self._times)
        clone._counts = list(self._counts)
        return clone


class RunningTimeline:
    """Running occupations of a ``size``-node machine, kept across events.

    A sorted (end, nodes) multiset: :meth:`add` when a job starts,
    :meth:`remove` (with the same end) when it completes.  :meth:`at`
    yields the free-time state at an instant with exactly the semantics
    of :meth:`FreeTimeline.from_pairs` — ends before ``now`` clamp to
    ``now``, idle nodes are free at ``now`` — without rebuilding it.
    """

    __slots__ = ("size", "_busy", "_times", "_counts")

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self.size = size
        self._busy = 0
        self._times: List[float] = []
        self._counts: List[int] = []

    def add(self, end: float, nodes: int) -> None:
        """Occupy ``nodes`` nodes until ``end``."""
        busy = self._busy + nodes
        if busy > self.size:
            raise ValueError(
                f"running jobs over-subscribe the machine: {busy} > {self.size}"
            )
        self._busy = busy
        times = self._times
        j = bisect_left(times, end)
        if j < len(times) and times[j] == end:
            self._counts[j] += nodes
        else:
            times.insert(j, end)
            self._counts.insert(j, nodes)

    def remove(self, end: float, nodes: int) -> None:
        """Release an occupation made by ``add(end, nodes)``."""
        times = self._times
        counts = self._counts
        j = bisect_left(times, end)
        if j == len(times) or times[j] != end or counts[j] < nodes:
            raise ValueError(f"no occupation of {nodes} nodes ending at {end}")
        self._busy -= nodes
        counts[j] -= nodes
        if not counts[j]:
            del times[j]
            del counts[j]

    def shadow(self, need: int, now: float) -> Tuple[float, int]:
        """When ``need`` nodes are first free, and how many are free then.

        Returns ``(now, idle nodes)`` if ``need`` nodes are idle already.
        Otherwise ends before ``now`` clamp to ``now``, as in :meth:`at`,
        and the walk stops at the first end by which ``need`` nodes are
        free, counting every occupation that ends then.  This is the EASY
        head reservation: the shadow time, and ``need`` plus the extra
        nodes.
        """
        free = self.size - self._busy
        if free >= need:
            return now, free
        times = self._times
        counts = self._counts
        j = bisect_right(times, now)
        free += sum(counts[:j])
        if free >= need:
            return now, free
        for i in range(j, len(times)):
            free += counts[i]
            if free >= need:
                return times[i], free
        raise RuntimeError(
            f"head needs {need} nodes but running+free only frees {free}"
        )

    def at(
        self, now: float, moving: Iterable[Tuple[int, float]] = ()
    ) -> FreeTimeline:
        """The machine's free times at ``now`` as a new timeline.

        ``moving`` adds (nodes, end) occupations that are not in the
        multiset because their end depends on ``now``; they are clamped
        and merged like every other end.
        """
        j = bisect_right(self._times, now)
        times = self._times[j:]
        counts = self._counts[j:]
        free = self.size - self._busy + sum(self._counts[:j])
        for nodes, end in moving:
            free -= nodes
            if end <= now:
                free += nodes
                continue
            k = bisect_left(times, end)
            if k < len(times) and times[k] == end:
                counts[k] += nodes
            else:
                times.insert(k, end)
                counts.insert(k, nodes)
        if free < 0:
            raise ValueError(
                f"running jobs over-subscribe the machine: "
                f"{self.size - free} > {self.size}"
            )
        if free:
            times.insert(0, now)
            counts.insert(0, free)
        tl = FreeTimeline.__new__(FreeTimeline)
        tl.size = self.size
        tl._times = times
        tl._counts = counts
        return tl


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
