"""Engine tests: event flow, chunk chains, kill policies, observers."""

import pytest

from repro.core.cluster import Cluster
from repro.core.engine import Engine, KillPolicy, Observer
from repro.core.job import Job, JobState
from repro.sched.nobackfill import NoBackfillScheduler
from repro.sched.noguarantee import NoGuaranteeScheduler
from tests.conftest import make_job


def run_fcfs(jobs, size=8, **kw):
    engine = Engine(Cluster(size), NoBackfillScheduler("fcfs"), jobs, **kw)
    return engine.run()


class TestBasicFlow:
    def test_single_job(self):
        res = run_fcfs([make_job(id=1, submit=10.0, nodes=4, runtime=100.0)])
        job = res.jobs[0]
        assert job.state is JobState.COMPLETED
        assert job.start_time == 10.0
        assert job.end_time == 110.0

    def test_sequential_when_too_wide_together(self):
        jobs = [
            make_job(id=1, submit=0.0, nodes=6, runtime=100.0),
            make_job(id=2, submit=0.0, nodes=6, runtime=100.0),
        ]
        res = run_fcfs(jobs)
        by = res.job_by_id()
        assert by[1].start_time == 0.0
        assert by[2].start_time == 100.0

    def test_parallel_when_fits(self):
        jobs = [
            make_job(id=1, submit=0.0, nodes=4, runtime=100.0),
            make_job(id=2, submit=0.0, nodes=4, runtime=50.0),
        ]
        res = run_fcfs(jobs)
        by = res.job_by_id()
        assert by[1].start_time == by[2].start_time == 0.0

    def test_input_jobs_not_mutated(self):
        jobs = [make_job(id=1, runtime=10.0)]
        run_fcfs(jobs)
        assert jobs[0].state is JobState.PENDING
        assert jobs[0].start_time is None

    def test_too_wide_job_rejected_upfront(self):
        with pytest.raises(ValueError, match="wider"):
            run_fcfs([make_job(nodes=9)], size=8)

    def test_events_processed_counted(self):
        res = run_fcfs([make_job(id=i) for i in range(1, 4)])
        assert res.events_processed >= 6  # 3 arrivals + 3 completions


class TestKillPolicies:
    def test_never_runs_past_wcl(self):
        job = make_job(id=1, runtime=500.0, wcl=100.0)
        res = run_fcfs([job], kill_policy=KillPolicy.NEVER)
        assert res.jobs[0].end_time == 500.0

    def test_at_wcl_truncates(self):
        job = make_job(id=1, runtime=500.0, wcl=100.0)
        res = run_fcfs([job], kill_policy=KillPolicy.AT_WCL)
        assert res.jobs[0].end_time == 100.0

    def test_at_wcl_keeps_short_jobs(self):
        job = make_job(id=1, runtime=50.0, wcl=100.0)
        res = run_fcfs([job], kill_policy=KillPolicy.AT_WCL)
        assert res.jobs[0].end_time == 50.0

    def test_if_needed_kills_when_blocked(self):
        # overrunning 6-wide job blocks a queued 6-wide job -> killed at wcl
        jobs = [
            make_job(id=1, submit=0.0, nodes=6, runtime=5000.0, wcl=100.0),
            make_job(id=2, submit=10.0, nodes=6, runtime=50.0, wcl=50.0),
        ]
        res = run_fcfs(jobs, kill_policy=KillPolicy.IF_NEEDED)
        by = res.job_by_id()
        assert by[1].end_time == 100.0  # killed at its limit
        assert by[2].start_time == 100.0

    def test_if_needed_lets_idle_overrun_continue(self):
        # nothing queued: the job runs to its natural completion
        jobs = [make_job(id=1, nodes=6, runtime=5000.0, wcl=100.0)]
        res = run_fcfs(jobs, kill_policy=KillPolicy.IF_NEEDED)
        assert res.jobs[0].end_time == 5000.0

    def test_if_needed_kills_at_recheck_when_work_arrives_late(self):
        jobs = [
            make_job(id=1, submit=0.0, nodes=6, runtime=50000.0, wcl=100.0),
            make_job(id=2, submit=2000.0, nodes=6, runtime=50.0, wcl=50.0),
        ]
        res = run_fcfs(jobs, kill_policy=KillPolicy.IF_NEEDED,
                       wcl_check_interval=300.0)
        by = res.job_by_id()
        # killed at the first check after the competitor arrived
        assert 2000.0 <= by[1].end_time <= 2300.0
        assert by[2].start_time == by[1].end_time


class TestChunkChains:
    @staticmethod
    def chain(n_chunks=3, nodes=2, rt=100.0, submit=0.0, parent=99, base_id=10):
        return [
            Job(id=base_id + i, submit_time=submit, nodes=nodes, runtime=rt,
                wcl=rt, parent_id=parent, chunk_index=i, chunk_count=n_chunks,
                seniority_time=submit)
            for i in range(n_chunks)
        ]

    def test_chunks_run_back_to_back_on_idle_machine(self):
        res = run_fcfs(self.chain())
        by = res.job_by_id()
        assert by[10].start_time == 0.0
        assert by[11].submit_time == 100.0
        assert by[11].start_time == 100.0
        assert by[12].end_time == 300.0

    def test_later_chunks_not_scheduled_before_predecessor(self):
        jobs = self.chain() + [make_job(id=1, submit=0.0, nodes=8, runtime=10.0)]
        res = run_fcfs(jobs)
        by = res.job_by_id()
        for i in (11, 12):
            assert by[i].submit_time >= by[i - 1].end_time

    def test_chain_tail_accounting(self):
        chain = self.chain(n_chunks=3, rt=100.0)
        engine = Engine(Cluster(8), NoBackfillScheduler("fcfs"), chain)
        jobs = engine._jobs
        tails = sorted(engine.tail_runtime.get(j.id, 0.0) for j in jobs)
        assert tails == [0.0, 100.0, 200.0]

    def test_other_jobs_can_interleave_between_chunks(self):
        # 6-wide chunks; a 6-wide competitor arrives mid-chain and FCFS
        # order lets it in at the first chunk boundary after its arrival
        chain = self.chain(n_chunks=2, nodes=6, rt=100.0)
        comp = make_job(id=1, submit=50.0, nodes=6, runtime=30.0)
        res = run_fcfs(chain + [comp], size=8)
        by = res.job_by_id()
        assert by[1].start_time == 100.0           # at the chunk boundary
        assert by[11].start_time == by[1].end_time  # chain resumes after


class TestObservers:
    def test_observer_sees_lifecycle(self):
        seen = {"arrive": [], "start": [], "complete": [], "end": 0}

        class Probe(Observer):
            def on_arrival(self, job, now):
                seen["arrive"].append((job.id, now))

            def on_start(self, job, now):
                seen["start"].append((job.id, now))

            def on_completion(self, job, now):
                seen["complete"].append((job.id, now))

            def on_end(self, now):
                seen["end"] += 1

        jobs = [make_job(id=1, submit=5.0, runtime=10.0)]
        Engine(Cluster(4), NoBackfillScheduler("fcfs"), jobs,
               observers=[Probe()]).run()
        assert seen["arrive"] == [(1, 5.0)]
        assert seen["start"] == [(1, 5.0)]
        assert seen["complete"] == [(1, 15.0)]
        assert seen["end"] == 1

    def test_max_events_guard(self):
        jobs = [make_job(id=i) for i in range(1, 20)]
        with pytest.raises(RuntimeError, match="max_events"):
            Engine(Cluster(8), NoBackfillScheduler("fcfs"), jobs,
                   max_events=3).run()


class TestValidateMode:
    def test_validate_runs_clean(self, small_workload):
        engine = Engine(
            Cluster(small_workload.system_size),
            NoGuaranteeScheduler(),
            small_workload.jobs,
            validate=True,
        )
        res = engine.run()
        assert len(res.jobs) == len(small_workload)
