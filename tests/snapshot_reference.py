"""Full-scan reference for :meth:`repro.service.LiveSimulation.snapshot`.

This is the snapshot as it was written before sessions kept per-user
records between calls: it counts job states by scanning every job and
rebuilds every user's fairness record from every completed job, with the
per-user formulas of :func:`repro.metrics.users.per_user_fairness` copied
inline.  It shares no incremental state with the session, so
``tests/test_snapshot_incremental.py`` can hold the live payload to it
byte for byte.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.job import JobState
from repro.metrics.fairness import miss_times


def reference_per_user(live, jobs=None) -> Dict[str, Dict[str, float]]:
    """Every user's record rebuilt from every completed job."""
    if jobs is None:
        jobs = [j for j in live.engine.jobs if j.state is JobState.COMPLETED]
    if not jobs:
        return {}
    fst, epsilon = live._fst_obs.fst, live.options.epsilon
    misses = miss_times(jobs, fst)
    by_user: Dict[int, list] = {}
    for j in jobs:
        by_user.setdefault(j.user_id, []).append(j)
    stats = {}
    for user, user_jobs in by_user.items():
        vals = np.array([misses[j.id] for j in user_jobs])
        waits = np.array([j.start_time - j.submit_time for j in user_jobs])
        stats[user] = {
            "n_jobs": len(user_jobs),
            "total_work": float(sum(j.area for j in user_jobs)),
            "avg_wait": float(waits.mean()),
            "avg_miss_time": float(vals.mean()),
            "percent_unfair": float((vals > epsilon).mean()),
            "worst_miss": float(vals.max()),
        }
    return {str(uid): rec for uid, rec in sorted(stats.items())}


def reference_snapshot(live) -> Dict[str, object]:
    """The session's snapshot payload, recomputed from every job."""
    jobs = live.engine.jobs
    by_state = {s: 0 for s in JobState}
    for j in jobs:
        by_state[j.state] += 1
    cluster = live.engine.cluster
    return {
        "now": live.engine.now,
        "events_processed": live.engine.events_processed,
        "jobs_submitted": len(jobs),
        "jobs_completed": by_state[JobState.COMPLETED],
        "jobs_running": by_state[JobState.RUNNING],
        "jobs_queued": by_state[JobState.QUEUED] + by_state[JobState.PENDING],
        "free_nodes": cluster.free_nodes,
        "utilization_now": cluster.used_nodes / cluster.size,
        "per_user": reference_per_user(live),
    }
