"""Unit tests for the cluster resource model."""

import pytest

from repro.core.cluster import AllocationError, Cluster
from tests.conftest import make_job


class TestConstruction:
    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            Cluster(0)
        with pytest.raises(ValueError):
            Cluster(-5)

    def test_starts_empty(self):
        c = Cluster(16)
        assert c.free_nodes == 16
        assert c.used_nodes == 0
        assert c.running_count == 0


class TestStartFinish:
    def test_start_allocates(self):
        c = Cluster(16)
        job = make_job(nodes=6)
        job.state = job.state.QUEUED
        c.start(job, now=10.0)
        assert c.free_nodes == 10
        assert list(c.running_jobs()) == [job]
        assert job.start_time == 10.0

    def test_finish_releases(self):
        c = Cluster(16)
        job = make_job(nodes=6)
        c.start(job, 0.0)
        c.finish(job, 100.0)
        assert c.free_nodes == 16
        assert list(c.running_jobs()) == []
        assert job.end_time == 100.0

    def test_over_allocation_raises(self):
        c = Cluster(8)
        c.start(make_job(id=1, nodes=6), 0.0)
        with pytest.raises(AllocationError, match="nodes"):
            c.start(make_job(id=2, nodes=4), 0.0)

    def test_wider_than_cluster_raises(self):
        with pytest.raises(AllocationError):
            Cluster(8).start(make_job(nodes=9), 0.0)

    def test_double_start_raises(self):
        c = Cluster(8)
        job = make_job(nodes=2)
        c.start(job, 0.0)
        with pytest.raises(AllocationError, match="already running"):
            c.start(job, 1.0)

    def test_finish_not_running_raises(self):
        with pytest.raises(AllocationError, match="not running"):
            Cluster(8).finish(make_job(), 0.0)


class TestQueries:
    def test_fits(self):
        c = Cluster(8)
        c.start(make_job(id=1, nodes=5), 0.0)
        assert c.fits(make_job(id=2, nodes=3))
        assert not c.fits(make_job(id=3, nodes=4))

    def test_running_jobs_iteration(self):
        c = Cluster(8)
        a, b = make_job(id=1, nodes=2), make_job(id=2, nodes=3)
        c.start(a, 0.0)
        c.start(b, 0.0)
        assert {j.id for j in c.running_jobs()} == {1, 2}

    def test_invariants_hold_through_churn(self):
        c = Cluster(32)
        jobs = [make_job(id=i, nodes=(i % 5) + 1) for i in range(1, 11)]
        started = []
        for j in jobs:
            if c.fits(j):
                c.start(j, 0.0)
                started.append(j)
            c.check_invariants()
        for j in started:
            c.finish(j, 10.0)
            c.check_invariants()
        assert c.free_nodes == 32
