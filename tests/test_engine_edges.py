"""Edge cases and failure injection for the engine and schedulers."""

import math

import pytest

from repro.core.cluster import Cluster
from repro.core.engine import Engine, KillPolicy
from repro.core.job import JobState
from repro.core.results import SimulationResult
from repro.sched.base import BaseScheduler
from repro.sched.conservative import OVERRUN_EXTENSION, ConservativeScheduler
from repro.sched.depthk import DepthKScheduler
from repro.sched.nobackfill import NoBackfillScheduler
from repro.sched.noguarantee import NoGuaranteeScheduler
from tests.conftest import make_job


class TestZeroAndTinyJobs:
    @pytest.mark.parametrize("factory", [
        lambda: NoBackfillScheduler("fcfs"),
        lambda: NoGuaranteeScheduler(),
        lambda: ConservativeScheduler(),
        lambda: DepthKScheduler(depth=math.inf),
    ])
    def test_zero_runtime_jobs(self, factory):
        """Aborted trace jobs have runtime 0; they must flow through every
        policy without wedging the event loop."""
        jobs = [
            make_job(id=1, submit=0.0, nodes=4, runtime=0.0, wcl=60.0),
            make_job(id=2, submit=0.0, nodes=8, runtime=100.0, wcl=100.0),
            make_job(id=3, submit=1.0, nodes=4, runtime=0.0, wcl=60.0),
        ]
        res = Engine(Cluster(8), factory(), jobs, validate=True).run()
        by = res.job_by_id()
        assert by[1].end_time == by[1].start_time
        assert all(j.state is JobState.COMPLETED for j in res.jobs)

    def test_simultaneous_identical_arrivals(self):
        jobs = [make_job(id=i, submit=100.0, nodes=4, runtime=50.0)
                for i in range(1, 8)]
        res = Engine(Cluster(8), NoGuaranteeScheduler(), jobs,
                     validate=True).run()
        starts = sorted(j.start_time for j in res.jobs)
        # two at a time on an 8-node machine
        assert starts[0] == starts[1] == 100.0
        assert len(res.jobs) == 7

    def test_empty_workload(self):
        res = Engine(Cluster(8), NoBackfillScheduler("fcfs"), []).run()
        assert res.jobs == []
        assert res.makespan == 0.0
        # run() is finish() on a fresh engine: no orphan decay tick
        assert (res.end_time, res.events_processed) == (0.0, 0)
        done = Engine(Cluster(8), NoBackfillScheduler("fcfs"), []).finish()
        assert res.digest() == done.digest()


class TestMisbehavingScheduler:
    class GreedyLiar(BaseScheduler):
        """Starts jobs without checking capacity: the cluster must throw."""

        def schedule(self, now, reason):
            for job in list(self.queue):
                self.start(job, now)

    def test_overallocation_surfaces(self):
        jobs = [make_job(id=1, nodes=6), make_job(id=2, nodes=6)]
        with pytest.raises(Exception, match="nodes"):
            Engine(Cluster(8), self.GreedyLiar(), jobs).run()

    class Sitter(BaseScheduler):
        """Never starts anything: the engine must detect the wedge."""

        def schedule(self, now, reason):
            return

    def test_never_starting_scheduler_detected(self):
        jobs = [make_job(id=1)]
        engine = Engine(Cluster(8), self.Sitter(), jobs)
        with pytest.raises(RuntimeError, match="stranded"):
            engine.run()


class TestResults:
    def test_result_rejects_incomplete_jobs(self):
        job = make_job(id=1)
        with pytest.raises(ValueError, match="did not complete"):
            SimulationResult(jobs=[job], cluster_size=8, end_time=0.0)

    def test_fst_series_missing(self):
        res = Engine(Cluster(8), NoBackfillScheduler("fcfs"),
                     [make_job(id=1)]).run()
        with pytest.raises(KeyError, match="observer"):
            res.fst("hybrid")

    def test_total_work_accounts_kills(self):
        jobs = [make_job(id=1, nodes=4, runtime=1000.0, wcl=100.0)]
        res = Engine(Cluster(8), NoBackfillScheduler("fcfs"), jobs,
                     kill_policy=KillPolicy.AT_WCL).run()
        assert res.total_work == pytest.approx(400.0)


class TestDecayTick:
    def test_decay_ticks_survive_simulation_span(self):
        """Multi-day gaps between jobs: the decay tick chain must not die
        early (it reschedules while events remain)."""
        jobs = [
            make_job(id=1, submit=0.0, nodes=8, runtime=100.0, user=1),
            make_job(id=2, submit=5 * 86400.0, nodes=8, runtime=100.0, user=2),
        ]
        sched = NoGuaranteeScheduler()
        Engine(Cluster(8), sched, jobs).run()
        # user 1's usage decayed across the 5-day gap (query past the last
        # settle point, which is the final decay tick)
        last = sched.tracker._last_settle
        assert sched.tracker.usage_of(1, last) < 800.0 * 0.2

    def test_no_decay_events_when_factor_is_one(self):
        sched = NoBackfillScheduler("fcfs", decay_factor=1.0)
        engine = Engine(Cluster(8), sched, [make_job(id=1)])
        res = engine.run()
        # only one arrival + one completion processed
        assert res.events_processed == 2


class TestConservativeEdges:
    def test_wide_then_narrow_same_instant(self):
        jobs = [
            make_job(id=1, submit=0.0, nodes=8, runtime=100.0),
            make_job(id=2, submit=0.0, nodes=8, runtime=100.0),
            make_job(id=3, submit=0.0, nodes=1, runtime=5.0),
        ]
        res = Engine(Cluster(8), ConservativeScheduler(), jobs,
                     validate=True).run()
        assert res.job_by_id()[3].start_time >= 0.0

    def test_many_overruns_at_once(self):
        # four jobs all exceeding their estimates simultaneously
        jobs = [make_job(id=i, submit=0.0, nodes=2, runtime=1000.0, wcl=50.0)
                for i in range(1, 5)]
        jobs.append(make_job(id=9, submit=10.0, nodes=8, runtime=20.0, wcl=20.0))
        res = Engine(Cluster(8), ConservativeScheduler(), jobs,
                     validate=True).run()
        assert res.job_by_id()[9].start_time >= 1000.0

    def test_overrun_extension_default(self):
        # job 1 overruns its 100 s estimate; the pass at job 3's arrival
        # moves its predicted end to 200 + OVERRUN_EXTENSION, and its real
        # completion at 500 gives that hole back to jobs 2 and 3
        sched = ConservativeScheduler()
        jobs = [
            make_job(id=1, submit=0.0, nodes=8, runtime=500.0, wcl=100.0),
            make_job(id=2, submit=10.0, nodes=8, runtime=10.0, wcl=10.0),
            make_job(id=3, submit=200.0, nodes=8, runtime=10.0, wcl=10.0),
        ]
        engine = Engine(Cluster(8), sched, jobs, validate=True)
        engine.step_until(200.0)
        assert sched.running.ends == {1: 200.0 + OVERRUN_EXTENSION}
        assert sched.reservations[2][0] == 200.0 + OVERRUN_EXTENSION
        res = engine.finish()
        assert res.job_by_id()[2].start_time == 500.0
        assert res.job_by_id()[3].start_time == 510.0
