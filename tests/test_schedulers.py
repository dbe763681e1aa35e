"""Behavioral tests for the scheduling policies.

Each scheduler is exercised on hand-built scenarios with known outcomes,
then on a shared random workload where cross-policy invariants must hold
(all jobs complete, no over-allocation, deterministic replay).
"""

import math

import pytest

from repro.core.cluster import Cluster
from repro.core.engine import Engine
from repro.sched.conservative import ConservativeScheduler
from repro.sched.depthk import DepthKScheduler
from repro.sched.easy import EasyBackfillScheduler
from repro.sched.nobackfill import NoBackfillScheduler
from repro.sched.noguarantee import NoGuaranteeScheduler
from tests.conftest import make_job

HOUR = 3600.0


def simulate(scheduler, jobs, size=8, **kw):
    return Engine(Cluster(size), scheduler, jobs, validate=True, **kw).run()


# the paper's Figure 1 / Figure 2 scenario: jobA at the head needs the whole
# machine; jobB is narrow and short
def figure12_jobs():
    return [
        make_job(id=1, submit=0.0, nodes=4, runtime=100.0),   # running
        make_job(id=2, submit=10.0, nodes=8, runtime=100.0),  # jobA (wide)
        make_job(id=3, submit=20.0, nodes=4, runtime=50.0),   # jobB (narrow)
    ]


class TestNoBackfill:
    def test_figure1_jobB_waits(self):
        """Strict FCFS: jobB cannot start although nodes are free."""
        res = simulate(NoBackfillScheduler("fcfs"), figure12_jobs())
        by = res.job_by_id()
        assert by[2].start_time == 100.0
        assert by[3].start_time >= by[2].start_time

    def test_priority_order_respected(self):
        jobs = [make_job(id=i, submit=0.0, nodes=8, runtime=10.0) for i in (1, 2, 3)]
        res = simulate(NoBackfillScheduler("fcfs"), jobs)
        by = res.job_by_id()
        assert by[1].start_time < by[2].start_time < by[3].start_time


class TestEasy:
    def test_figure2_jobB_backfills(self):
        """EASY: jobB fits in the hole before jobA's reservation."""
        res = simulate(EasyBackfillScheduler("fcfs"), figure12_jobs())
        by = res.job_by_id()
        assert by[3].start_time == 20.0   # backfilled immediately
        assert by[2].start_time == 100.0  # head reservation honored

    def test_backfill_cannot_delay_head(self):
        jobs = [
            make_job(id=1, submit=0.0, nodes=4, runtime=100.0),
            make_job(id=2, submit=10.0, nodes=8, runtime=100.0),  # head
            # long narrow job: would end after the shadow and uses more
            # than the extra nodes -> must NOT start before the head
            make_job(id=3, submit=20.0, nodes=4, runtime=500.0),
        ]
        res = simulate(EasyBackfillScheduler("fcfs"), jobs)
        by = res.job_by_id()
        assert by[2].start_time == 100.0
        assert by[3].start_time >= by[2].start_time

    def test_extra_nodes_backfill(self):
        jobs = [
            make_job(id=1, submit=0.0, nodes=4, runtime=100.0),
            make_job(id=2, submit=10.0, nodes=6, runtime=100.0),  # head: needs 6
            # 2-wide long job fits in the "extra" (8-6=2) nodes at shadow
            make_job(id=3, submit=20.0, nodes=2, runtime=500.0),
        ]
        res = simulate(EasyBackfillScheduler("fcfs"), jobs)
        by = res.job_by_id()
        assert by[3].start_time == 20.0
        assert by[2].start_time == 100.0  # not delayed

    def test_head_reservation_helper(self):
        cluster = Cluster(8)
        cluster.start(make_job(id=1, nodes=4, runtime=100.0, wcl=100.0), 0.0)
        shadow, free_then = cluster.expected_ends.shadow(6, now=10.0)
        assert shadow == 100.0
        assert free_then - 6 == 2


class TestNoGuarantee:
    def test_narrow_jobs_start_in_fairshare_order(self):
        jobs = [
            make_job(id=1, submit=0.0, nodes=2, runtime=100.0, user=1),
            make_job(id=2, submit=0.0, nodes=2, runtime=100.0, user=2),
            make_job(id=3, submit=0.0, nodes=2, runtime=100.0, user=3),
        ]
        res = simulate(NoGuaranteeScheduler(), jobs)
        assert all(j.start_time == 0.0 for j in res.jobs)

    def test_wide_job_starves_until_promotion(self):
        """Without reservations a wide job is passed over by narrow ones;
        the starvation queue eventually reserves for it."""
        jobs = [make_job(id=1, submit=0.0, nodes=8, runtime=10.0, user=9)]
        # user 9's usage is raised by an early job so the wide job sorts last
        jobs.insert(0, make_job(id=99, submit=0.0, nodes=8, runtime=1.0, user=9))
        jid = 2
        # steady stream of narrow jobs from many users, denser than the
        # wide job can ever fit around
        for k in range(200):
            jobs.append(make_job(id=jid, submit=k * 60.0, nodes=2,
                                 runtime=600.0, user=(k % 8) + 1))
            jid += 1
        res = simulate(NoGuaranteeScheduler(starvation_threshold=2 * HOUR), jobs)
        wide = res.job_by_id()[1]
        # it could not start before the starvation threshold...
        assert wide.start_time >= 2 * HOUR
        # ...but the starvation reservation bounded the wait well below the
        # end of the arrival stream
        assert wide.start_time < 200 * 60.0

    def test_starvation_entrance_barred_for_heavy_users(self):
        sched = NoGuaranteeScheduler(entrance="fair", starvation_threshold=HOUR,
                                     recheck_interval=HOUR)
        jobs = [
            # user 1 burns lots of usage -> heavy
            make_job(id=1, submit=0.0, nodes=8, runtime=4 * HOUR, user=1),
            # light user keeps a trickle running so user 1 stays above mean
            make_job(id=2, submit=0.0, nodes=1, runtime=30 * HOUR, user=2),
            # heavy user's wide job: would starve, but cannot enter the queue
            make_job(id=3, submit=4 * HOUR, nodes=8, runtime=1.0, user=1),
            # narrow stream that keeps beating it
            *[make_job(id=10 + k, submit=4 * HOUR + k * 900.0, nodes=4,
                       runtime=1800.0, user=3 + (k % 3)) for k in range(40)],
        ]
        res = simulate(sched, jobs)
        wide = res.job_by_id()[3]
        baseline = simulate(
            NoGuaranteeScheduler(entrance="all", starvation_threshold=HOUR),
            jobs,
        ).job_by_id()[3]
        # barred from the starvation queue, it starts no earlier than with
        # promotion allowed
        assert wide.start_time >= baseline.start_time

    def test_waiting_jobs_spans_both_queues(self):
        sched = NoGuaranteeScheduler()
        jobs = [make_job(id=1, nodes=4, runtime=10.0)]
        engine = Engine(Cluster(8), sched, jobs)
        engine.run()
        assert sched.waiting_jobs() == []

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            NoGuaranteeScheduler(entrance="bogus")
        with pytest.raises(ValueError):
            NoGuaranteeScheduler(starvation_threshold=-1.0)


class TestConservative:
    def test_every_job_bounded_by_arrival_reservation(self):
        """Conservative: arrival-time reservation is an upper bound on the
        start (with accurate estimates)."""
        jobs = [
            make_job(id=1, submit=0.0, nodes=8, runtime=100.0),
            make_job(id=2, submit=0.0, nodes=8, runtime=100.0),
            make_job(id=3, submit=0.0, nodes=8, runtime=100.0),
        ]
        res = simulate(ConservativeScheduler(), jobs)
        by = res.job_by_id()
        assert by[1].start_time == 0.0
        assert by[2].start_time == 100.0
        assert by[3].start_time == 200.0

    def test_backfill_into_hole(self):
        jobs = [
            make_job(id=1, submit=0.0, nodes=8, runtime=100.0),
            make_job(id=2, submit=10.0, nodes=8, runtime=100.0),
            make_job(id=3, submit=20.0, nodes=2, runtime=1000.0, wcl=1000.0),
        ]
        res = simulate(ConservativeScheduler(), jobs)
        by = res.job_by_id()
        # the 2-wide job cannot fit before job 2 (would delay it: all 8
        # nodes reserved back to back), so it waits for job 2
        assert by[3].start_time >= by[2].start_time

    def test_compression_on_early_completion(self):
        jobs = [
            # estimates 10x the runtime: finishes way early
            make_job(id=1, submit=0.0, nodes=8, runtime=100.0, wcl=1000.0),
            make_job(id=2, submit=10.0, nodes=8, runtime=50.0, wcl=50.0),
        ]
        res = simulate(ConservativeScheduler(), jobs)
        by = res.job_by_id()
        # job 2 was reserved at t=1000 but compresses to t=100
        assert by[2].start_time == 100.0

    def test_overrun_does_not_break_schedule(self):
        jobs = [
            make_job(id=1, submit=0.0, nodes=8, runtime=500.0, wcl=100.0),
            make_job(id=2, submit=10.0, nodes=8, runtime=50.0, wcl=50.0),
            make_job(id=3, submit=20.0, nodes=4, runtime=10.0, wcl=20.0),
        ]
        res = simulate(ConservativeScheduler(), jobs)
        by = res.job_by_id()
        assert by[2].start_time >= 500.0  # blocked by the overrunning job
        assert by[3].start_time >= 500.0

    def test_fairshare_order_drives_improvement(self):
        """When a hole opens, the lighter user's job gets first pick."""
        jobs = [
            make_job(id=1, submit=0.0, nodes=8, runtime=100.0, wcl=1000.0),
            # both queued jobs want the whole machine; user 2 is heavier
            make_job(id=2, submit=10.0, nodes=8, runtime=50.0, user=2),
            make_job(id=3, submit=11.0, nodes=8, runtime=50.0, user=3),
        ]
        # preload usage for user 2
        sched = ConservativeScheduler()
        sched.tracker._usage[2] = 1e6
        res = simulate(sched, jobs)
        by = res.job_by_id()
        assert by[3].start_time < by[2].start_time


class TestDynamic:
    def test_reservations_follow_priority_changes(self):
        """A lower-priority job's early reservation is not sticky: when the
        queue reorders, the dynamic scheduler re-ranks everything."""
        jobs = [
            make_job(id=1, submit=0.0, nodes=8, runtime=100.0, wcl=100.0),
            make_job(id=2, submit=10.0, nodes=8, runtime=50.0, user=2),
            make_job(id=3, submit=40.0, nodes=8, runtime=50.0, user=3),
        ]
        sched = DepthKScheduler(depth=math.inf)
        # user 2 becomes very heavy after job 2 arrived
        sched.tracker._usage[2] = 1e6
        res = simulate(sched, jobs)
        by = res.job_by_id()
        # despite arriving later, the light user's job runs first
        assert by[3].start_time < by[2].start_time

    def test_matches_conservative_on_trivial_load(self):
        jobs = [make_job(id=i, submit=i * 10.0, nodes=2, runtime=50.0)
                for i in range(1, 5)]
        r1 = simulate(ConservativeScheduler(), jobs)
        r2 = simulate(DepthKScheduler(depth=math.inf), jobs)
        for a, b in zip(r1.jobs, r2.jobs):
            assert a.start_time == b.start_time


class TestCrossPolicyInvariants:
    POLICIES = [
        lambda: NoBackfillScheduler("fcfs"),
        lambda: NoBackfillScheduler("fairshare"),
        lambda: EasyBackfillScheduler("fcfs"),
        lambda: EasyBackfillScheduler("fairshare"),
        lambda: NoGuaranteeScheduler(),
        lambda: NoGuaranteeScheduler(entrance="fair"),
        lambda: ConservativeScheduler(),
        lambda: DepthKScheduler(depth=math.inf),
    ]

    @pytest.mark.parametrize("factory", POLICIES)
    def test_all_jobs_complete(self, factory, heavy_workload):
        res = Engine(
            Cluster(heavy_workload.system_size), factory(),
            heavy_workload.jobs, validate=True,
        ).run()
        assert len(res.jobs) == len(heavy_workload)
        for j in res.jobs:
            assert j.start_time >= j.submit_time
            assert j.end_time >= j.start_time

    @pytest.mark.parametrize("factory", POLICIES)
    def test_deterministic_replay(self, factory, small_workload):
        def starts():
            res = Engine(
                Cluster(small_workload.system_size), factory(),
                small_workload.jobs,
            ).run()
            return [(j.id, j.start_time) for j in res.jobs]

        assert starts() == starts()
