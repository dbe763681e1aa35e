"""Tests for reservation-depth-k backfilling."""

import math

import pytest

from repro.core.cluster import Cluster
from repro.core.engine import Engine
from repro.sched.depthk import DepthKScheduler
from repro.sched.easy import EasyBackfillScheduler
from tests.conftest import make_job


def simulate(sched, jobs, size=8):
    return Engine(Cluster(size), sched, jobs, validate=True).run()


def scenario():
    """Running 4-wide job; queued: wide head, long narrow, short narrow."""
    return [
        make_job(id=1, submit=0.0, nodes=4, runtime=100.0),
        make_job(id=2, submit=10.0, nodes=8, runtime=100.0),   # head
        make_job(id=3, submit=20.0, nodes=4, runtime=500.0),   # long narrow
        make_job(id=4, submit=21.0, nodes=4, runtime=50.0),    # short narrow
    ]


class TestDepthSemantics:
    def test_depth0_is_greedy_no_guarantee(self):
        res = simulate(DepthKScheduler(depth=0, priority="fcfs"), scenario())
        by = res.job_by_id()
        # nothing protects the wide job: the long narrow one jumps in
        assert by[3].start_time == 20.0
        assert by[2].start_time >= 500.0

    def test_depth1_matches_easy_protection(self):
        res = simulate(DepthKScheduler(depth=1, priority="fcfs"), scenario())
        by = res.job_by_id()
        # head reserved at t=100; the long narrow job would delay it
        assert by[2].start_time == 100.0
        assert by[3].start_time >= 100.0
        # the short one fits in the hole before the reservation
        assert by[4].start_time == 21.0

    def test_depth1_equals_easy_on_scenario(self):
        a = simulate(DepthKScheduler(depth=1, priority="fcfs"), scenario())
        b = simulate(EasyBackfillScheduler(priority="fcfs"), scenario())
        for ja, jb in zip(a.jobs, b.jobs):
            assert ja.start_time == jb.start_time

    def test_depth1_is_not_easy_when_the_reserved_job_starts(self):
        """Depth k reserves for the top k jobs in priority order, counting
        jobs that start in this pass; EASY reserves for the first blocked
        job.  At t=60 job 3 starts and uses depth 1's one reservation, so
        nothing protects the wide job 4 and the long job 5 backfills."""
        jobs = lambda: [  # noqa: E731
            make_job(id=1, submit=0.0, nodes=4, runtime=100.0),
            make_job(id=2, submit=0.0, nodes=4, runtime=60.0),
            make_job(id=3, submit=5.0, nodes=2, runtime=20.0),
            make_job(id=4, submit=10.0, nodes=8, runtime=100.0),
            make_job(id=5, submit=20.0, nodes=2, runtime=500.0),
        ]
        easy = simulate(EasyBackfillScheduler(priority="fcfs"), jobs())
        depth1 = simulate(DepthKScheduler(depth=1, priority="fcfs"), jobs())
        e, d = easy.job_by_id(), depth1.job_by_id()
        assert (e[4].start_time, e[5].start_time) == (100.0, 200.0)
        assert (d[5].start_time, d[4].start_time) == (60.0, 560.0)

    def test_consdyn_is_depth_inf(self):
        """Conservative backfilling with dynamic reservations is depth ∞,
        under the paper's name; its depth is fixed by the registry."""
        from repro.sched.registry import get_policy, validate_overrides

        for key in ("consdyn.nomax", "consdyn.72max"):
            sched = get_policy(key).make_scheduler()
            assert isinstance(sched, DepthKScheduler)
            assert sched.depth == math.inf
            assert sched.name == "consdyn.fairshare"
            with pytest.raises(ValueError, match="'depth'"):
                validate_overrides(key, {"depth": 2})

    def test_deeper_protects_more(self):
        """With depth 2 the long narrow job (rank 2 after head) gets a
        reservation too, so nothing can cut in front of it."""
        res1 = simulate(DepthKScheduler(depth=2, priority="fcfs"), scenario())
        by = res1.job_by_id()
        assert by[2].start_time == 100.0
        assert by[3].start_time == 200.0  # right behind the head

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            DepthKScheduler(depth=-1)
        with pytest.raises(ValueError):
            DepthKScheduler(depth=2.5)


class TestDepthKInvariants:
    @pytest.mark.parametrize("depth", [0, 1, 2, 4, math.inf])
    def test_completes_heavy_workload(self, depth, heavy_workload):
        res = Engine(
            Cluster(heavy_workload.system_size),
            DepthKScheduler(depth=depth),
            heavy_workload.jobs,
            validate=True,
        ).run()
        assert len(res.jobs) == len(heavy_workload)

    def test_overrun_handled(self):
        jobs = [
            make_job(id=1, submit=0.0, nodes=8, runtime=500.0, wcl=100.0),
            make_job(id=2, submit=10.0, nodes=8, runtime=50.0, wcl=50.0),
        ]
        res = simulate(DepthKScheduler(depth=2), jobs)
        assert res.job_by_id()[2].start_time >= 500.0

    def test_registry_entries(self):
        from repro.sched.registry import get_policy

        sched = get_policy("depth2.fairshare").make_scheduler()
        assert isinstance(sched, DepthKScheduler)
        assert sched.depth == 2
