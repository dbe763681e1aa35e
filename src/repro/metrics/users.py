"""Per-user fairness breakdowns.

The fairshare priority exists to arbitrate between *users*; the paper's
aggregates never show who actually wins.  These helpers slice the
per-job outcomes by user so a policy's user-level redistribution is
visible: barring heavy users from the starvation queue should show up
here as heavy-user misses growing while light-user misses shrink.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ..core.job import Job
from .fairness import miss_times


@dataclass(frozen=True)
class UserFairness:
    user_id: int
    n_jobs: int
    total_work: float            # proc-seconds submitted
    avg_wait: float
    avg_miss_time: float
    percent_unfair: float
    worst_miss: float


def user_record(
    user_id: int,
    misses: Sequence[float],
    waits: Sequence[float],
    areas: Sequence[float],
    epsilon: float,
) -> UserFairness:
    """One user's record from their jobs' misses, waits and areas.

    The three sequences must follow the jobs' order in the simulation's
    job list: a mean or a sum taken in another order can differ in the
    last bits.  Live service sessions and :func:`per_user_fairness` both
    build records here.
    """
    vals = np.array(misses)
    return UserFairness(
        user_id=user_id,
        n_jobs=len(vals),
        total_work=float(sum(areas)),
        avg_wait=float(np.array(waits).mean()),
        avg_miss_time=float(vals.mean()),
        percent_unfair=float((vals > epsilon).mean()),
        worst_miss=float(vals.max()),
    )


def per_user_fairness(
    jobs: Sequence[Job],
    fst: Dict[int, float],
    epsilon: float = 1.0,
) -> Dict[int, UserFairness]:
    """One fairness record per user."""
    misses = miss_times(jobs, fst)
    by_user: Dict[int, list] = {}
    for j in jobs:
        by_user.setdefault(j.user_id, []).append(j)
    return {
        user: user_record(
            user,
            [misses[j.id] for j in user_jobs],
            [j.start_time - j.submit_time for j in user_jobs],
            [j.area for j in user_jobs],
            epsilon,
        )
        for user, user_jobs in by_user.items()
    }
