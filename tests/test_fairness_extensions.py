"""Tests for the fairness-metric extensions (alternative bases and the
load-weighted aggregate the paper mentions)."""

import pytest

from repro.core.cluster import Cluster
from repro.core.engine import Engine
from repro.metrics.fairness import HybridFSTObserver, fairness_stats
from repro.sched.noguarantee import NoGuaranteeScheduler
from repro.workload.generator import random_workload
from tests.conftest import make_job


class TestFcfsBasis:
    def test_basis_validation(self):
        with pytest.raises(ValueError, match="unknown reference order"):
            HybridFSTObserver(orders=("fairshare", "seniority"))
        with pytest.raises(ValueError, match="at least one"):
            HybridFSTObserver(orders=())

    def test_fcfs_basis_orders_by_arrival(self):
        """Under the FCFS basis, a light user's later job does NOT jump
        the hypothetical queue."""
        jobs = [
            make_job(id=1, submit=0.0, nodes=8, runtime=100.0, user=1),
            make_job(id=2, submit=10.0, nodes=8, runtime=50.0, user=2),
            make_job(id=3, submit=20.0, nodes=8, runtime=50.0, user=3),
        ]

        sched = NoGuaranteeScheduler()
        sched.tracker._usage[2] = 1e9  # user 2 very heavy
        obs = HybridFSTObserver(orders=("fairshare", "fcfs"))
        res = Engine(Cluster(8), sched, jobs, observers=[obs]).run()
        fair = res.series["fst_hybrid"]
        fcfs = res.series["fst_hybrid_fcfs"]
        assert obs.fst == fair
        # fairshare basis: job 3 (light user) goes before heavy job 2
        assert fair[3] == 100.0
        # FCFS basis: job 2 keeps its place, job 3 queues behind it
        assert fcfs[2] == 100.0
        assert fcfs[3] == 150.0

    def test_series_key_separation(self):
        jobs = [make_job(id=1, runtime=10.0)]
        obs = HybridFSTObserver(orders=("fairshare", "fcfs", "shortest-first"))
        res = Engine(Cluster(8), NoGuaranteeScheduler(), jobs,
                     observers=[obs]).run()
        assert {"fst_hybrid", "fst_hybrid_fcfs",
                "fst_hybrid_shortest-first"} <= set(res.series)

    def test_both_bases_agree_on_single_user_fcfs_load(self):
        wl = random_workload(40, system_size=16, seed=6, load=1.0, n_users=1)
        obs = HybridFSTObserver(orders=("fairshare", "fcfs"))
        res = Engine(Cluster(16), NoGuaranteeScheduler(), wl.jobs,
                     observers=[obs]).run()
        # one user: fairshare order degenerates to FCFS
        assert res.series["fst_hybrid"] == res.series["fst_hybrid_fcfs"]


class TestLoadWeightedUnfairness:
    def _completed(self, id, start, nodes, runtime):
        j = make_job(id=id, submit=0.0, nodes=nodes, runtime=runtime)
        j.state = j.state.COMPLETED
        j.start_time, j.end_time = start, start + runtime
        return j

    def test_percent_unfair_load_weighs_big_jobs(self):
        small_unfair = self._completed(1, start=100.0, nodes=1, runtime=10.0)
        big_fair = self._completed(2, start=0.0, nodes=100, runtime=1000.0)
        fst = {1: 0.0, 2: 0.0}
        st = fairness_stats([small_unfair, big_fair], fst)
        assert st.percent_unfair == 0.5
        # 10 proc-s of 100,010 total
        assert st.percent_unfair_load == pytest.approx(10.0 / 100_010.0)

    def test_all_unfair_load_is_one(self):
        jobs = [self._completed(i, start=50.0, nodes=2, runtime=10.0)
                for i in (1, 2)]
        st = fairness_stats(jobs, {1: 0.0, 2: 0.0})
        assert st.percent_unfair_load == 1.0

    def test_as_dict_includes_load_field(self):
        st = fairness_stats([], {})
        assert "percent_unfair_load" in st.as_dict()
