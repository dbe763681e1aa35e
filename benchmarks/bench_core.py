"""Microbenchmarks for the hot data structures: the reservation profile
(every backfilling decision) and the hybrid-FST placement path (every
arrival): a base timeline read from the running occupations, then the
order placed on it in one ``place_sequence`` call."""

import numpy as np

from repro.core.job import Job
from repro.core.listsched import RunningTimeline
from repro.core.profile import ReservationProfile

rng = np.random.default_rng(0)
N_OPS = 500
STARTS = rng.uniform(0, 1e5, N_OPS)
DURS = rng.uniform(60, 3600, N_OPS)
NODES = rng.integers(1, 256, N_OPS)
JOBS = [Job(id=k, submit_time=0.0, nodes=int(NODES[k]),
            runtime=float(DURS[k]), wcl=float(DURS[k]))
        for k in range(N_OPS)]
DURATIONS = {job.id: job.runtime for job in JOBS}


def profile_churn():
    p = ReservationProfile(1024)
    placed = []
    for k in range(N_OPS):
        s = p.earliest_fit(int(NODES[k]), float(DURS[k]), float(STARTS[k]))
        p.reserve(s, s + float(DURS[k]), int(NODES[k]))
        placed.append((s, s + float(DURS[k]), int(NODES[k])))
        if k % 3 == 0 and placed:
            s0, e0, n0 = placed.pop(0)
            p.release(max(s0, p.times[0]), e0, n0)
    return len(p)


def listsched_churn():
    base = RunningTimeline(1024).at(0.0)
    return base.place_sequence(JOBS, DURATIONS, 0.0)


def test_profile_fit_reserve_release(benchmark):
    segments = benchmark(profile_churn)
    assert segments > 0


def test_list_scheduler_placement(benchmark):
    last_start = benchmark(listsched_churn)
    assert last_start > 0
