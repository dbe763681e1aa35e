"""Regression tests for bugs found during development.

Each test pins the exact failure mode so it cannot silently return.
"""

import pytest

from repro.core.cluster import Cluster
from repro.core.engine import Engine
from repro.sched.conservative import ConservativeScheduler
from repro.workload.model import Workload
from repro.workload.transforms import parent_view, split_by_runtime_limit
from tests.conftest import make_job


class TestConservativeOverdueStall:
    """An overrun stall used to leave reservations anchored at bumped
    predictions no event ever fired at; the next completion's improvement
    pass then hit the 'compression worsened' assertion.  The scheduler now
    detects overdue reservations and rebuilds instead."""

    def test_long_stall_then_completion(self):
        jobs = [
            # overruns its estimate by a lot; nothing else runs
            make_job(id=1, submit=0.0, nodes=8, runtime=50_000.0, wcl=100.0),
            # anchored at the (repeatedly bumped) prediction
            make_job(id=2, submit=10.0, nodes=8, runtime=50.0, wcl=50.0),
            make_job(id=3, submit=20.0, nodes=4, runtime=10.0, wcl=20.0),
        ]
        res = Engine(Cluster(8), ConservativeScheduler(), jobs,
                     validate=True).run()
        by = res.job_by_id()
        assert by[2].start_time >= 50_000.0
        assert by[3].start_time >= 50_000.0

    def test_stall_with_interleaved_arrivals(self):
        jobs = [make_job(id=1, submit=0.0, nodes=8, runtime=20_000.0, wcl=100.0)]
        # arrivals trickle in during the stall, each triggering a pass on a
        # profile whose predictions keep expiring
        for k in range(2, 12):
            jobs.append(make_job(id=k, submit=500.0 * k, nodes=4,
                                 runtime=100.0, wcl=200.0))
        res = Engine(Cluster(8), ConservativeScheduler(), jobs,
                     validate=True).run()
        assert all(j.start_time >= 20_000.0 for j in res.jobs if j.id != 1)


class TestChunkParentIdCollision:
    """Renumbering all split-workload jobs from 1 used to let an unsplit
    job's id collide with a chain's parent id, corrupting the parent-view
    metric join.  Unsplit jobs now keep their ids; chunks number upward."""

    def test_parent_view_restores_original_id_set(self):
        jobs = [
            make_job(id=1, submit=1.0, nodes=1, runtime=300.0, wcl=300.0),
            make_job(id=2, submit=0.0, nodes=1, runtime=1.0, wcl=1.0),
        ]
        wl = Workload(jobs, system_size=8)
        out = split_by_runtime_limit(wl, 100.0)  # job 1 -> 3 chunks
        # no chunk id collides with a surviving original id
        originals = {j.id for j in out.jobs if not j.is_chunk}
        parents = {j.parent_id for j in out.jobs if j.is_chunk}
        assert not originals & parents or originals & parents == set()
        chunk_ids = {j.id for j in out.jobs if j.is_chunk}
        assert not chunk_ids & originals

        from repro.core.engine import Engine
        from repro.sched.nobackfill import NoBackfillScheduler

        res = Engine(Cluster(8), NoBackfillScheduler("fcfs"), out.jobs).run()
        collapsed = parent_view(res.jobs)
        assert sorted(j.id for j in collapsed) == [1, 2]


class TestStrandedJobsDetected:
    """The engine used to report stranded queued jobs only via the
    SimulationResult constructor; it now names the failure directly."""

    def test_error_message_names_policy_failure(self):
        from repro.sched.base import BaseScheduler

        class Lazy(BaseScheduler):
            def schedule(self, now, reason):
                pass

        with pytest.raises(RuntimeError, match="never started"):
            Engine(Cluster(8), Lazy(), [make_job(id=1)]).run()
