"""Tests for the Workload container."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.workload.model import Workload
from tests.conftest import make_job


class TestValidation:
    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            Workload([make_job(id=1), make_job(id=1)], system_size=8)

    def test_rejects_too_wide(self):
        with pytest.raises(ValueError, match="wider"):
            Workload([make_job(nodes=9)], system_size=8)

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError, match="positive"):
            Workload([], system_size=0)

    def test_sorts_by_submit(self):
        wl = Workload(
            [make_job(id=1, submit=100.0), make_job(id=2, submit=10.0)],
            system_size=8,
        )
        assert [j.id for j in wl.jobs] == [2, 1]

    @given(st.lists(st.integers(min_value=0, max_value=4), max_size=30),
           st.randoms())
    def test_unsorted_input_comes_out_in_submit_then_id_order(self, slots, rnd):
        # few distinct submit times: ties are broken by id
        jobs = [make_job(id=i, submit=100.0 * s) for i, s in enumerate(slots)]
        rnd.shuffle(jobs)
        given_order = list(jobs)
        wl = Workload(jobs, system_size=8)
        assert [(j.submit_time, j.id) for j in wl.jobs] \
            == sorted((j.submit_time, j.id) for j in jobs)
        assert list(map(id, jobs)) == list(map(id, given_order))
        assert wl.jobs is not jobs


class TestViews:
    def test_numpy_views(self):
        wl = Workload(
            [make_job(id=1, submit=0.0, nodes=2, runtime=10.0, wcl=20.0, user=3),
             make_job(id=2, submit=5.0, nodes=4, runtime=30.0, wcl=40.0, user=9)],
            system_size=8,
        )
        assert list(wl.nodes()) == [2, 4]
        assert list(wl.runtimes()) == [10.0, 30.0]
        assert list(wl.wcls()) == [20.0, 40.0]
        assert list(wl.users()) == [3, 9]
        assert list(wl.submit_times()) == [0.0, 5.0]

    def test_aggregates(self):
        wl = Workload(
            [make_job(id=1, submit=0.0, nodes=2, runtime=100.0),
             make_job(id=2, submit=400.0, nodes=4, runtime=100.0)],
            system_size=8,
        )
        assert wl.total_work == 600.0
        assert wl.span == 400.0
        assert wl.n_users == 1
        assert wl.offered_load() == pytest.approx(600.0 / (400.0 * 8))
        assert wl.offered_load(horizon=1000.0) == pytest.approx(600.0 / 8000.0)

    def test_offered_load_degenerate(self):
        wl = Workload([make_job(id=1)], system_size=8)
        assert wl.offered_load() == 0.0

    def test_describe_nonempty(self):
        wl = Workload([make_job(id=1)], system_size=8)
        assert "1 jobs" in wl.describe()
        assert "system=8" in wl.describe()

    def test_describe_empty(self):
        assert "empty" in Workload([], system_size=8).describe()

    def test_category_tables_consistency(self):
        wl = Workload(
            [make_job(id=1, nodes=4, runtime=3600.0),
             make_job(id=2, nodes=4, runtime=3600.0)],
            system_size=8,
        )
        counts = wl.count_table()
        hours = wl.proc_hours_table()
        assert counts.sum() == 2
        assert hours.sum() == pytest.approx(8.0)  # 2 jobs x 4 nodes x 1 h
