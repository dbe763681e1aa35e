"""Strict priority-order scheduling without backfilling.

The paper's Figure 1 baseline: only the job at the head of the (priority-
ordered) queue may start; everyone else waits even if nodes are free.
"Fair" in the social-justice sense but with poor utilization — included as
a reference substrate and as the schedule family underlying fair-start-time
reasoning.
"""

from __future__ import annotations

from .base import BaseScheduler
from .easy import head_first_pass


class NoBackfillScheduler(BaseScheduler):
    """FCFS or fairshare strict no-backfill scheduler."""

    def __init__(self, priority: str = "fcfs", **kw) -> None:
        super().__init__(priority=priority, **kw)
        self.name = f"nobackfill.{priority}"

    def schedule(self, now: float, reason: str) -> None:
        # start from the head while it fits; the first blocked job blocks all
        head_first_pass(self, now, backfill=False)
