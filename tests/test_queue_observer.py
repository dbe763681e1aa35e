"""Tests for the queue-depth observer."""

import pytest

from repro.core.cluster import Cluster
from repro.core.engine import Engine
from repro.metrics.queue import QueueObserver
from repro.sched.nobackfill import NoBackfillScheduler
from repro.sched.noguarantee import NoGuaranteeScheduler
from tests.conftest import make_job


def run_with_queue(jobs, size=8, record=False, sched=None):
    obs = QueueObserver(record_series=record)
    res = Engine(Cluster(size), sched or NoBackfillScheduler("fcfs"),
                 jobs, observers=[obs]).run()
    return obs, res


class TestQueueStats:
    def test_no_queueing(self):
        obs, _ = run_with_queue([make_job(id=1, nodes=4, runtime=100.0)])
        st = obs.stats()
        assert st.time_avg_queue_length == 0.0
        assert st.max_queue_length == 1  # momentarily queued at arrival
        assert st.longest_busy_queue_spell == 0.0

    def test_known_backlog(self):
        # two full-machine jobs at t=0: the second queues for 100 s
        jobs = [
            make_job(id=1, submit=0.0, nodes=8, runtime=100.0),
            make_job(id=2, submit=0.0, nodes=8, runtime=100.0),
        ]
        obs, _ = run_with_queue(jobs)
        st = obs.stats()
        # queue holds 1 job (8 nodes) over [0, 100) of the 200 s span
        assert st.time_avg_queue_length == pytest.approx(0.5)
        assert st.time_avg_queued_nodes == pytest.approx(4.0)
        assert st.max_queued_nodes == 8
        assert st.longest_busy_queue_spell == pytest.approx(100.0)

    def test_spell_resets_when_queue_drains(self):
        jobs = [
            make_job(id=1, submit=0.0, nodes=8, runtime=50.0),
            make_job(id=2, submit=0.0, nodes=8, runtime=50.0),   # waits 50
            make_job(id=3, submit=1000.0, nodes=8, runtime=50.0),
            make_job(id=4, submit=1000.0, nodes=8, runtime=50.0),  # waits 50
        ]
        obs, _ = run_with_queue(jobs)
        assert obs.stats().longest_busy_queue_spell == pytest.approx(50.0)

    def test_series_recording(self):
        jobs = [make_job(id=i, submit=float(i), nodes=8, runtime=10.0)
                for i in range(1, 4)]
        obs, _ = run_with_queue(jobs, record=True)
        t = [row[0] for row in obs.series]
        assert all(len(row) == 3 for row in obs.series)
        assert max(row[1] for row in obs.series) >= 1
        assert t == sorted(t)

    def test_collect_into_result(self):
        jobs = [make_job(id=1, nodes=4, runtime=10.0)]
        obs, res = run_with_queue(jobs)
        assert "queue_stats" in res.series

    def test_with_real_scheduler(self, heavy_workload):
        obs, _ = run_with_queue(
            heavy_workload.jobs, size=heavy_workload.system_size,
            sched=NoGuaranteeScheduler(),
        )
        st = obs.stats()
        assert st.time_avg_queue_length > 0.0
        assert st.max_queue_length >= 1
