"""Tests for workload transforms, chiefly the 72 h runtime-limit split."""

import math

import pytest

from repro.core.cluster import Cluster
from repro.core.engine import Engine
from repro.core.job import JobState
from repro.sched.nobackfill import NoBackfillScheduler
from repro.workload.generator import random_workload
from repro.workload.model import Workload
from repro.workload.transforms import (
    parent_view,
    split_by_runtime_limit,
)
from tests.conftest import make_job

HOUR = 3600.0
LIMIT = 72 * HOUR


def wl_of(jobs, size=1024):
    return Workload(jobs, system_size=size, name="t")


class TestSplit:
    def test_short_jobs_pass_through(self):
        wl = wl_of([make_job(id=5, runtime=100.0, wcl=200.0)])
        out = split_by_runtime_limit(wl, LIMIT)
        assert len(out) == 1
        job = out.jobs[0]
        assert not job.is_chunk
        assert job.runtime == 100.0 and job.wcl == 200.0

    def test_long_wcl_capped_even_without_split(self):
        wl = wl_of([make_job(id=5, runtime=10 * HOUR, wcl=100 * HOUR)])
        out = split_by_runtime_limit(wl, LIMIT)
        assert out.jobs[0].wcl == LIMIT

    def test_long_job_split_into_chunks(self):
        wl = wl_of([make_job(id=5, runtime=200 * HOUR, wcl=250 * HOUR)])
        out = split_by_runtime_limit(wl, LIMIT)
        chunks = out.jobs
        assert len(chunks) == math.ceil(200 / 72)  # 3
        assert all(c.parent_id == 5 for c in chunks)
        assert [c.chunk_index for c in chunks] == [0, 1, 2]
        assert all(c.chunk_count == 3 for c in chunks)

    def test_chunk_runtimes_sum_to_original(self):
        wl = wl_of([make_job(id=5, runtime=200 * HOUR, wcl=250 * HOUR)])
        out = split_by_runtime_limit(wl, LIMIT)
        assert sum(c.runtime for c in out.jobs) == pytest.approx(200 * HOUR)
        assert all(c.runtime <= LIMIT for c in out.jobs)

    def test_chunk_wcls_capped_at_limit(self):
        wl = wl_of([make_job(id=5, runtime=200 * HOUR, wcl=500 * HOUR)])
        out = split_by_runtime_limit(wl, LIMIT)
        assert all(c.wcl <= LIMIT for c in out.jobs)

    def test_chunks_inherit_seniority_and_user(self):
        wl = wl_of([make_job(id=5, submit=123.0, runtime=200 * HOUR,
                             wcl=200 * HOUR, user=7)])
        out = split_by_runtime_limit(wl, LIMIT)
        assert all(c.seniority == 123.0 for c in out.jobs)
        assert all(c.user_id == 7 for c in out.jobs)

    def test_underestimated_long_job_gets_floor_wcl(self):
        # runtime 200h but user estimated 10h: chunks still need a wcl
        wl = wl_of([make_job(id=5, runtime=200 * HOUR, wcl=10 * HOUR)])
        out = split_by_runtime_limit(wl, LIMIT)
        assert all(c.wcl >= 60.0 for c in out.jobs)

    def test_ids_unique_across_mixed_workload(self):
        jobs = [
            make_job(id=1, runtime=100.0),
            make_job(id=2, runtime=200 * HOUR, wcl=200 * HOUR),
            make_job(id=3, runtime=50.0),
        ]
        out = split_by_runtime_limit(wl_of(jobs), LIMIT)
        ids = [j.id for j in out.jobs]
        assert len(set(ids)) == len(ids)

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            split_by_runtime_limit(wl_of([make_job()]), 0.0)

    def test_exact_multiple_runtime(self):
        wl = wl_of([make_job(id=1, runtime=144 * HOUR, wcl=144 * HOUR)])
        out = split_by_runtime_limit(wl, LIMIT)
        assert len(out.jobs) == 2
        assert all(c.runtime == LIMIT for c in out.jobs)


class TestParentView:
    def _simulate_split(self, jobs, size=8):
        wl = split_by_runtime_limit(wl_of(jobs, size), LIMIT)
        res = Engine(Cluster(size), NoBackfillScheduler("fcfs"), wl.jobs).run()
        return res.jobs

    def test_collapses_chain(self):
        done = self._simulate_split(
            [make_job(id=5, nodes=4, runtime=100 * HOUR, wcl=100 * HOUR)])
        parents = parent_view(done)
        assert len(parents) == 1
        p = parents[0]
        assert p.id == 5
        assert p.runtime == pytest.approx(100 * HOUR)
        assert p.state is JobState.COMPLETED
        assert p.end_time - p.start_time >= 100 * HOUR - 1

    def test_mixed_passthrough(self):
        done = self._simulate_split([
            make_job(id=1, nodes=2, runtime=10.0),
            make_job(id=2, nodes=2, runtime=100 * HOUR, wcl=100 * HOUR),
        ])
        parents = parent_view(done)
        assert {p.id for p in parents} == {1, 2}

    def test_incomplete_chain_raises(self):
        done = self._simulate_split(
            [make_job(id=5, nodes=4, runtime=100 * HOUR, wcl=100 * HOUR)])
        with pytest.raises(ValueError, match="chunks present"):
            parent_view(done[:-1])

    def test_uncompleted_jobs_rejected(self):
        with pytest.raises(ValueError, match="not completed"):
            parent_view([make_job(id=1)])

