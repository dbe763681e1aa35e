"""Differential test: ``HybridFSTObserver`` vs a from-scratch rebuild.

``tests/fst_reference.py`` rebuilds the machine state from the cluster's
running jobs at every arrival, sorts the whole waiting list per order and
places it on the per-node ``ListScheduler`` vector.  The production
observer keeps its running timeline, user lanes and duration memo across
events and places only the order's prefix through the arriving job.
Every ``fst_hybrid*`` series must be *equal* — no tolerance, because the
FSTs feed recorded digests.

The workloads aim at the places an incremental view can drift: chunk
chains from the runtime-limit split (successors re-submitted at their
predecessor's completion, chain tails in both estimate modes),
``IF_NEEDED`` and ``AT_WCL`` kills of overrunning jobs, simultaneous
arrivals and completions on a coarse time grid, users tied at equal
usage (never-run users, twins running identical jobs, and a zero decay
factor that wipes every account), usage decayed below 1e-9 and
deleted, zero runtimes (the 1e-9 duration floor) and float-noise
timestamps.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import Cluster
from repro.core.engine import Engine, KillPolicy
from repro.core.job import Job
from repro.metrics.fairness import REFERENCE_ORDERS, HybridFSTObserver
from repro.obs import counters
from repro.sched.conservative import ConservativeScheduler
from repro.sched.easy import EasyBackfillScheduler
from repro.sched.nobackfill import NoBackfillScheduler
from repro.sched.noguarantee import NoGuaranteeScheduler
from repro.sched.roundrobin import RoundRobinScheduler
from repro.workload.model import Workload
from repro.workload.transforms import split_by_runtime_limit
from tests.fst_reference import ReferenceFSTObserver

SIZE = 16
ORDERS = tuple(REFERENCE_ORDERS)

#: scheduler factories, each taking the fairshare decay settings
SCHEDULERS = {
    "cplant.all": lambda **kw: NoGuaranteeScheduler(
        starvation_threshold=300.0, recheck_interval=200.0, **kw),
    "cplant.fair": lambda **kw: NoGuaranteeScheduler(
        starvation_threshold=300.0, entrance="fair", **kw),
    "easy.fairshare": lambda **kw: EasyBackfillScheduler(
        priority="fairshare", **kw),
    "nobackfill.fcfs": lambda **kw: NoBackfillScheduler(priority="fcfs", **kw),
    "nobackfill.fairshare": lambda **kw: NoBackfillScheduler(
        priority="fairshare", **kw),
    "rr.user": lambda **kw: RoundRobinScheduler(**kw),
    "cons.fairshare": lambda **kw: ConservativeScheduler(**kw),
}

#: submit times: a coarse grid (simultaneous arrivals, arrivals landing on
#: completions) plus float-noise neighbours of the grid points
SUBMITS = st.sampled_from(
    [0.0, 0.0, 100.0, 100.0, 0.1 + 0.2, 0.3, 250.0, 1000.0, 1000.0 + 1e-9]
) | st.floats(0.0, 3000.0)

#: runtimes: grid values (completions coincide with arrivals), zero, and
#: values that overrun their estimate
RUNTIMES = st.sampled_from([0.0, 50.0, 100.0, 150.0, 400.0, 900.0]) | st.floats(
    0.0, 2500.0)

ROWS = st.lists(
    st.tuples(
        SUBMITS,
        st.integers(1, SIZE),                      # nodes
        RUNTIMES,
        st.sampled_from([0.5, 1.0, 1.0, 2.0, 3.5]),  # wcl / runtime
        st.integers(1, 5),                         # user
        st.booleans(),                             # twin for another user
    ),
    min_size=1, max_size=18,
)


def build_jobs(rows):
    jobs = []
    for submit, nodes, runtime, factor, user, twin in rows:
        wcl = max(runtime * factor, 10.0)
        for u in ((user, user + 5) if twin else (user,)):
            jobs.append(Job(id=len(jobs) + 1, submit_time=submit, nodes=nodes,
                            runtime=runtime, wcl=wcl, user_id=u))
    return jobs


def run_both(jobs, scheduler, mode, kill, limit, decay):
    if limit is not None:
        jobs = split_by_runtime_limit(Workload(jobs, SIZE, name="fst"),
                                      limit, min_chunk_wcl=10.0).jobs
    factor, interval = decay
    observer = HybridFSTObserver(mode, ORDERS)
    reference = ReferenceFSTObserver(mode, ORDERS)
    engine = Engine(
        Cluster(SIZE),
        SCHEDULERS[scheduler](decay_factor=factor, decay_interval=interval),
        jobs, observers=[observer, reference], kill_policy=kill,
        wcl_check_interval=150.0, max_events=200_000,
    )
    result = engine.run()
    return result, reference


@settings(max_examples=150, deadline=None)
@given(
    rows=ROWS,
    scheduler=st.sampled_from(sorted(SCHEDULERS)),
    mode=st.sampled_from(["perfect", "wcl"]),
    kill=st.sampled_from(list(KillPolicy)),
    limit=st.sampled_from([None, None, 300.0, 1000.0]),
    decay=st.sampled_from([(0.5, 86_400.0), (0.5, 200.0), (0.0, 150.0),
                           (1e-6, 100.0)]),
)
def test_every_series_equals_the_from_scratch_rebuild(
    rows, scheduler, mode, kill, limit, decay
):
    result, reference = run_both(build_jobs(rows), scheduler, mode, kill,
                                 limit, decay)
    assert set(reference.series) == {
        k for k in result.series if k.startswith("fst_hybrid")
    }
    for key, expected in reference.series.items():
        assert result.series[key] == expected, key
        assert len(expected) == len(result.jobs)


def test_chunked_overrunning_workload_is_covered():
    """A fixed case that re-submits chunk successors in both modes and
    kills under ``IF_NEEDED``, so the family above is known to reach
    them."""
    rows = [(0.0, 8, 900.0, 0.5, 1, True), (0.0, 12, 2500.0, 1.0, 2, False),
            (100.0, 16, 400.0, 2.0, 3, False), (100.0, 4, 0.0, 1.0, 4, True),
            (250.0, 6, 150.0, 3.5, 1, False), (0.1 + 0.2, 2, 50.0, 1.0, 5, False)]
    for mode in ("perfect", "wcl"):
        for kill in KillPolicy:
            with counters.collect() as c:
                result, reference = run_both(build_jobs(rows), "cplant.all",
                                             mode, kill, 1000.0, (0.5, 200.0))
            assert c.get("engine.chunk_resubmit") > 0
            assert (c.get("engine.wcl_kill") > 0) == (kill is KillPolicy.IF_NEEDED)
            for key, expected in reference.series.items():
                assert result.series[key] == expected, (mode, kill, key)
