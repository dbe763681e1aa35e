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

There is one production path.  :class:`RunningTimeline` is the
persistent machine state the hybrid-FST observer keeps across events:
the running occupations as a sorted (end, nodes) multiset, updated per
start and completion.  Each arrival's base :class:`FreeTimeline` is
:meth:`RunningTimeline.at` — a copy clamped at ``now`` — and
:meth:`FreeTimeline.place_sequence` places the order's prefix on it.
Per-node free times are heavily duplicated (at most one distinct value
per running/placed job), so a timeline stores a sorted (time, count)
multiset and places in O(distinct values), independent of machine size.
The cluster keeps a :class:`RunningTimeline` too, of expected ends
(``start + wcl``), from which :meth:`RunningTimeline.shadow` reads the
EASY head reservation.

The independent reference, one free time per node, lives in
``tests/listsched_reference.py``; ``tests/test_profile_reference.py``
checks both timelines against it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, List, Mapping, Sequence, Tuple

from ..obs import counters as _counters
from .job import Job

_INF = float("inf")


class FreeTimeline:
    """Sorted (free-time, node-count) multiset for a ``size``-node machine.

    A job needing *N* nodes starts at the *N*-th smallest free time (ties
    between equal free times are interchangeable, so only the multiset
    matters), and those nodes become free again at start + duration.
    """

    __slots__ = ("size", "_times", "_counts")

    def __init__(self, size: int, now: float = 0.0) -> None:
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self.size = size
        self._times: List[float] = [float(now)]
        self._counts: List[int] = [size]

    def place_sequence(
        self, jobs: Sequence[Job], durations: Mapping[int, float], earliest: float
    ) -> float:
        """Place ``jobs`` in order, each for ``durations[job.id]`` and no
        earlier than ``earliest``; returns the last job's start.

        One fused loop for trusted callers: no per-job validation, call
        or counter update (``listsched.place`` is hit once, by the number
        placed).  ``jobs`` must be non-empty.
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
    yields the free-time state at an instant — ends before ``now`` clamp
    to ``now``, idle nodes are free at ``now`` — without rebuilding it.
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
