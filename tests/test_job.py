"""Unit tests for the job model."""

import dataclasses

import pytest

from repro.core.job import Job, JobState
from tests.conftest import make_job


class TestValidation:
    def test_rejects_nonpositive_nodes(self):
        with pytest.raises(ValueError, match="nodes"):
            make_job(nodes=0)
        with pytest.raises(ValueError, match="nodes"):
            make_job(nodes=-4)

    def test_rejects_negative_runtime(self):
        with pytest.raises(ValueError, match="runtime"):
            make_job(runtime=-1.0)

    def test_zero_runtime_allowed(self):
        # aborted jobs in real traces have zero runtime
        job = make_job(runtime=0.0, wcl=60.0)
        assert job.runtime == 0.0

    def test_rejects_nonpositive_wcl(self):
        with pytest.raises(ValueError, match="wcl"):
            make_job(wcl=0.0)

    def test_rejects_negative_submit(self):
        with pytest.raises(ValueError, match="submit"):
            make_job(submit=-5.0)


class TestDerived:
    def test_area(self):
        assert make_job(nodes=4, runtime=100.0).area == 400.0


class TestSeniority:
    def test_defaults_to_submit(self):
        assert make_job(submit=42.0).seniority == 42.0

    def test_chunks_inherit(self):
        job = make_job(submit=500.0, seniority_time=42.0)
        assert job.seniority == 42.0


class TestFreshCopy:
    def test_resets_state(self):
        job = make_job()
        job.state = JobState.COMPLETED
        job.start_time = 1.0
        job.end_time = 2.0
        clone = job.fresh_copy()
        assert clone.state is JobState.PENDING
        assert clone.start_time is None and clone.end_time is None
        assert clone.id == job.id and clone.nodes == job.nodes

    def test_does_not_mutate_original(self):
        job = make_job()
        job.state = JobState.RUNNING
        job.fresh_copy()
        assert job.state is JobState.RUNNING

    def test_preserves_chunk_fields(self):
        job = Job(id=9, submit_time=0.0, nodes=2, runtime=10.0, wcl=20.0,
                  parent_id=3, chunk_index=1, chunk_count=4, seniority_time=0.0)
        clone = job.fresh_copy()
        assert clone.parent_id == 3
        assert clone.chunk_index == 1
        assert clone.chunk_count == 4
        assert clone.is_chunk

    def test_equals_replace_on_every_field(self):
        """The positional copy is ``replace`` with the state reset, on a
        job whose every field differs from its default; the names it
        copies are exactly the dataclass fields, so a field added later
        fails here until ``fresh_copy`` passes it on."""
        job = Job(id=9, submit_time=5.0, nodes=2, runtime=10.0, wcl=20.0,
                  user_id=7, group_id=3, parent_id=4, chunk_index=1,
                  chunk_count=3, seniority_time=1.0)
        job.state = JobState.RUNNING
        job.start_time = 6.0
        job.end_time = 16.0
        names = [f.name for f in dataclasses.fields(Job)]
        assert names == [
            "id", "submit_time", "nodes", "runtime", "wcl", "user_id",
            "group_id", "parent_id", "chunk_index", "chunk_count",
            "seniority_time", "state", "start_time", "end_time",
        ]
        for f in dataclasses.fields(Job):
            if f.default is not dataclasses.MISSING:
                assert getattr(job, f.name) != f.default, f.name
        clone = job.fresh_copy()
        want = dataclasses.replace(
            job, state=JobState.PENDING, start_time=None, end_time=None
        )
        assert type(clone) is Job
        assert [getattr(clone, n) for n in names] == [
            getattr(want, n) for n in names
        ]
