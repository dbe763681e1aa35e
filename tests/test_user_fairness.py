"""Tests for the per-user fairness breakdowns."""

import pytest

from repro.metrics.users import per_user_fairness
from tests.conftest import make_job


def completed(id, user, start, miss_target, nodes=2, runtime=10.0):
    j = make_job(id=id, submit=0.0, nodes=nodes, runtime=runtime, user=user)
    j.state = j.state.COMPLETED
    j.start_time = start
    j.end_time = start + runtime
    return j


class TestPerUser:
    def test_grouping_and_stats(self):
        jobs = [
            completed(1, user=1, start=100.0, miss_target=None),
            completed(2, user=1, start=0.0, miss_target=None),
            completed(3, user=2, start=50.0, miss_target=None),
        ]
        fst = {1: 0.0, 2: 0.0, 3: 50.0}
        out = per_user_fairness(jobs, fst)
        assert set(out) == {1, 2}
        u1 = out[1]
        assert u1.n_jobs == 2
        assert u1.avg_miss_time == pytest.approx(50.0)
        assert u1.percent_unfair == pytest.approx(0.5)
        assert u1.worst_miss == 100.0
        assert out[2].avg_miss_time == 0.0

    def test_empty(self):
        assert per_user_fairness([], {}) == {}
