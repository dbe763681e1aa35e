"""Sandia-style "fairshare" queuing priority.

The CPlant scheduler prioritized jobs by a per-user *decaying
processor-seconds* account: usage accrues while a user's jobs run and the
account is multiplied by a decay factor every 24 hours, so users who have
not recently used the machine sort ahead of heavy recent users.

The paper gives the mechanism but not the decay constant; we default to
x0.5 per 24 h (docs/ARCHITECTURE.md, substitution 3).  Usage is charged
continuously (settled lazily at every state change and decay tick) rather
than in a lump at completion, so a week-long 512-node job weighs on its
owner's priority while it runs, not only afterwards.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import chain
from typing import Dict, List, Optional, Tuple

from ..core.job import Job
from ..obs import counters as _counters
from .queues import UserLanes, cut_after, fcfs_order

#: seconds per day — the decay cadence the paper states.
DAY = 86_400.0


class FairshareTracker:
    """Per-user decayed processor-seconds accounting."""

    def __init__(self, decay_factor: float = 0.5, decay_interval: float = DAY) -> None:
        if not (0.0 <= decay_factor <= 1.0):
            raise ValueError(f"decay_factor must be in [0,1], got {decay_factor}")
        if decay_interval <= 0:
            raise ValueError("decay_interval must be positive")
        self.decay_factor = decay_factor
        self.decay_interval = decay_interval
        self._usage: Dict[int, float] = defaultdict(float)
        self._running_procs: Dict[int, int] = defaultdict(int)
        self._last_settle = 0.0
        #: bumped whenever any user's decayed usage changes; priority-order
        #: caches key on this to avoid re-sorting an unchanged queue
        self.usage_version = 0

    # -- accounting --------------------------------------------------------------

    def settle(self, now: float) -> None:
        """Accrue usage for all running processors up to ``now``."""
        if now < self._last_settle:
            raise ValueError(
                f"settle time went backwards: {now} < {self._last_settle}"
            )
        dt = now - self._last_settle
        if dt > 0:
            if self._running_procs:
                usage = self._usage
                for user, procs in self._running_procs.items():
                    if procs:
                        usage[user] += procs * dt
                self.usage_version += 1
                c = _counters.ACTIVE
                if c is not None:
                    c.hit("fairshare.settle")
            self._last_settle = now

    def decay(self, now: float) -> None:
        """Apply one multiplicative decay tick (call every 24 h)."""
        self.settle(now)
        c = _counters.ACTIVE
        if c is not None:
            c.hit("fairshare.decay")
        if self.decay_factor == 1.0:
            return
        if self._usage:
            self.usage_version += 1
        for user in list(self._usage):
            self._usage[user] *= self.decay_factor
            if self._usage[user] < 1e-9:
                del self._usage[user]

    def job_started(self, job: Job, now: float) -> None:
        self.settle(now)
        self._running_procs[job.user_id] += job.nodes

    def job_finished(self, job: Job, now: float) -> None:
        self.settle(now)
        self._running_procs[job.user_id] -= job.nodes
        if self._running_procs[job.user_id] < 0:
            raise RuntimeError(f"negative running procs for user {job.user_id}")
        if self._running_procs[job.user_id] == 0:
            del self._running_procs[job.user_id]

    # -- queries -------------------------------------------------------------------

    def usage_of(self, user: int, now: float) -> float:
        self.settle(now)
        return self._usage.get(user, 0.0)

    def mean_active_usage(self, now: float) -> float:
        """Mean decayed usage over users with nonzero usage (0 if none).
        Every stored usage is positive: settle adds ``procs * dt > 0``,
        decay deletes accounts below 1e-9, and every read uses ``.get``."""
        self.settle(now)
        usage = self._usage
        return sum(usage.values()) / len(usage) if usage else 0.0

    def is_heavy(self, user: int, now: float, heavy_factor: float = 1.0) -> bool:
        """Is this user's decayed usage above ``heavy_factor`` x the mean
        active usage?  Used by the ``.fair`` starvation-entrance policy."""
        mean = self.mean_active_usage(now)
        if mean == 0.0:
            return False
        return self.usage_of(user, now) > heavy_factor * mean

    # -- ordering --------------------------------------------------------------------

    def priority_key(self, job: Job, now: float) -> Tuple[float, float, int]:
        """Sort key: ascending decayed usage, then FCFS tie-break.

        Lower usage = higher priority (users who have not recently used the
        machine go first).
        """
        return (self.usage_of(job.user_id, now), job.submit_time, job.id)

    def order(
        self, lanes: UserLanes, now: float, through: Optional[Job] = None
    ) -> list[Job]:
        """The jobs in ``lanes`` in fairshare priority order (the
        :meth:`priority_key` order); with ``through``, cut just after
        that job.

        Built user by user instead of job by job, so there is no per-job
        key: users are read in ascending usage.  A user alone at its usage
        level contributes its FCFS lane whole; users tied at one level
        (never-run users all sit at zero) are merged FCFS.  With
        ``through``, users ranked after its user are never touched.
        """
        self.settle(now)
        usage = self._usage.get
        by_user = lanes.lanes
        cut = math.inf if through is None else usage(through.user_id, 0.0)
        levels: Dict[float, List[int]] = {}
        for user in by_user:
            u = usage(user, 0.0)
            if u <= cut:
                levels.setdefault(u, []).append(user)
        out: List[Job] = []
        for u in sorted(levels):
            users = levels[u]
            if len(users) == 1:
                out.extend(by_user[users[0]])
            else:
                out.extend(fcfs_order(
                    chain.from_iterable(by_user[user] for user in users), now
                ))
        return out if through is None else cut_after(out, through)
