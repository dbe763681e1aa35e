"""User-level round-robin scheduling.

A deliberately simple egalitarian baseline for the fairness matrix: each
user's waiting jobs form an FCFS lane, and the scheduler rotates over
users, starting the next lane head that fits.  No reservations, no
backfilling beyond the rotation itself — a lane head that does not fit
is skipped for this round and the rotation moves on, so one wide job
cannot idle the machine, but a user's own jobs never overtake each
other.

The rotation pointer (the last user served) is the only scheduling
state; every pass either starts a job or returns, so scheduling
terminates, and all iteration is over sorted user ids, so the outcome is
deterministic.  The lanes are the scheduler's own (every
:class:`~repro.sched.base.BaseScheduler` keeps its queue as a
:class:`~repro.sched.queues.UserLanes`): a job joins its user's lane at
enqueue and leaves it when it starts, so a rotation reads lane heads
directly instead of rescanning the whole queue.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional

from ..obs import counters as _counters
from .base import BaseScheduler


class RoundRobinScheduler(BaseScheduler):
    """Round-robin over users, FCFS within each user's lane."""

    def __init__(self, **kw) -> None:
        super().__init__(priority="fcfs", **kw)
        self.name = "rr.user"
        self._last_user: Optional[int] = None

    def schedule(self, now: float, reason: str) -> None:
        lanes = self.lanes.lanes
        while self.queue:
            users = self.lanes.users
            # rotate: users strictly after the last served go first, wrap after
            if self._last_user is not None:
                i = bisect_right(users, self._last_user)
                users = users[i:] + users[:i]
            c = _counters.ACTIVE
            if c is not None:
                c.hit("rr.rotate")
            for user in users:
                head = lanes[user][0]
                if self.cluster.fits(head):
                    self._last_user = user
                    self.start(head, now)
                    break
            else:
                return
