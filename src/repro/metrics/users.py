"""Per-user fairness breakdowns.

The fairshare priority exists to arbitrate between *users*; the paper's
aggregates never show who actually wins.  These helpers slice the
per-job outcomes by user and by heavy/light standing so a policy's
user-level redistribution is visible: barring heavy users from the
starvation queue should show up here as heavy-user misses growing while
light-user misses shrink.
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


@dataclass(frozen=True)
class HeavyLightSplit:
    """Fairness of the heavy half of the workload vs the light half,
    splitting users by submitted work at the median."""

    n_heavy_users: int
    n_light_users: int
    heavy_avg_miss: float
    light_avg_miss: float
    heavy_percent_unfair: float
    light_percent_unfair: float
    heavy_avg_wait: float
    light_avg_wait: float


def heavy_light_split(
    jobs: Sequence[Job],
    fst: Dict[int, float],
    epsilon: float = 1.0,
    work_quantile: float = 0.9,
) -> HeavyLightSplit:
    """Split users at the ``work_quantile`` of per-user submitted work
    (default: the top decile of users by work are "heavy") and compare
    job-weighted fairness between the groups."""
    per_user = per_user_fairness(jobs, fst, epsilon)
    if not per_user:
        return HeavyLightSplit(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    works = np.array([u.total_work for u in per_user.values()])
    cut = float(np.quantile(works, work_quantile))
    heavy_ids = {u for u, rec in per_user.items() if rec.total_work >= cut}
    misses = miss_times(jobs, fst)

    def group(ids):
        sel = [j for j in jobs if (j.user_id in ids)]
        if not sel:
            return 0.0, 0.0, 0.0
        vals = np.array([misses[j.id] for j in sel])
        waits = np.array([j.start_time - j.submit_time for j in sel])
        return float(vals.mean()), float((vals > epsilon).mean()), float(waits.mean())

    h_miss, h_unf, h_wait = group(heavy_ids)
    light_ids = set(per_user) - heavy_ids
    l_miss, l_unf, l_wait = group(light_ids)
    return HeavyLightSplit(
        n_heavy_users=len(heavy_ids),
        n_light_users=len(light_ids),
        heavy_avg_miss=h_miss,
        light_avg_miss=l_miss,
        heavy_percent_unfair=h_unf,
        light_percent_unfair=l_unf,
        heavy_avg_wait=h_wait,
        light_avg_wait=l_wait,
    )


def render_user_fairness(
    per_user: Dict[int, UserFairness],
    top: int = 10,
    title: str = "per-user fairness (heaviest users first)",
) -> str:
    recs = sorted(per_user.values(), key=lambda r: -r.total_work)[:top]
    lines = [title,
             f"{'user':>6}{'jobs':>7}{'work(proc-h)':>14}{'avg wait':>11}"
             f"{'avg miss':>11}{'%unfair':>9}"]
    for r in recs:
        lines.append(
            f"{r.user_id:>6}{r.n_jobs:>7}{r.total_work / 3600:>14,.0f}"
            f"{r.avg_wait:>11,.0f}{r.avg_miss_time:>11,.0f}"
            f"{100 * r.percent_unfair:>8.1f}%"
        )
    return "\n".join(lines)
