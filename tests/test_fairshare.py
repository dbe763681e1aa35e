"""Unit tests for the fairshare usage tracker."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.fairshare import DAY, FairshareTracker
from repro.sched.queues import UserLanes
from tests.conftest import make_job


def lanes_of(jobs):
    lanes = UserLanes()
    for job in jobs:
        lanes.add(job)
    return lanes


class TestAccrual:
    def test_usage_accrues_while_running(self):
        t = FairshareTracker()
        t.job_started(make_job(user=1, nodes=4), now=0.0)
        assert t.usage_of(1, now=100.0) == 400.0

    def test_usage_stops_at_completion(self):
        t = FairshareTracker()
        job = make_job(user=1, nodes=4)
        t.job_started(job, now=0.0)
        t.job_finished(job, now=100.0)
        assert t.usage_of(1, now=500.0) == 400.0

    def test_multiple_jobs_same_user(self):
        t = FairshareTracker()
        t.job_started(make_job(id=1, user=1, nodes=2), now=0.0)
        t.job_started(make_job(id=2, user=1, nodes=3), now=0.0)
        assert t.usage_of(1, now=10.0) == 50.0

    def test_unknown_user_has_zero(self):
        assert FairshareTracker().usage_of(42, now=0.0) == 0.0

    def test_settle_backwards_raises(self):
        t = FairshareTracker()
        t.settle(100.0)
        with pytest.raises(ValueError):
            t.settle(50.0)

    def test_finish_unknown_raises(self):
        t = FairshareTracker()
        with pytest.raises(RuntimeError):
            t.job_finished(make_job(user=1, nodes=2), now=0.0)


class TestDecay:
    def test_halves_usage(self):
        t = FairshareTracker(decay_factor=0.5)
        job = make_job(user=1, nodes=10)
        t.job_started(job, now=0.0)
        t.job_finished(job, now=100.0)  # 1000 proc-s
        t.decay(DAY)
        assert t.usage_of(1, now=DAY) == 500.0

    def test_decay_accrues_first(self):
        t = FairshareTracker(decay_factor=0.5)
        t.job_started(make_job(user=1, nodes=1), now=0.0)
        t.decay(100.0)
        # 100 proc-s accrued, then halved
        assert t.usage_of(1, now=100.0) == 50.0

    def test_no_decay_factor_one(self):
        t = FairshareTracker(decay_factor=1.0)
        job = make_job(user=1, nodes=1)
        t.job_started(job, now=0.0)
        t.job_finished(job, now=100.0)
        t.decay(DAY)
        assert t.usage_of(1, now=DAY) == 100.0

    def test_tiny_usage_garbage_collected(self):
        t = FairshareTracker(decay_factor=0.5)
        job = make_job(user=1, nodes=1)
        t.job_started(job, now=0.0)
        t.job_finished(job, now=1.0)
        for k in range(60):
            t.decay(DAY * (k + 1))
        # 100 * 0.5**60 would still read as about 9e-17
        assert t.usage_of(1, 60 * DAY) == 0.0

    def test_invalid_factor_rejected(self):
        with pytest.raises(ValueError):
            FairshareTracker(decay_factor=1.5)
        with pytest.raises(ValueError):
            FairshareTracker(decay_factor=-0.1)


class TestOrdering:
    def test_light_user_first(self):
        t = FairshareTracker()
        heavy = make_job(id=1, user=1, nodes=10)
        t.job_started(heavy, now=0.0)
        t.job_finished(heavy, now=1000.0)
        jobs = [make_job(id=2, user=1, submit=0.0), make_job(id=3, user=2, submit=5.0)]
        assert [j.id for j in t.order(lanes_of(jobs), now=1000.0)] == [3, 2]

    def test_fcfs_tiebreak_within_user(self):
        t = FairshareTracker()
        jobs = [make_job(id=2, user=1, submit=10.0), make_job(id=1, user=1, submit=0.0)]
        assert [j.id for j in t.order(lanes_of(jobs), now=0.0)] == [1, 2]

    def test_priority_key_matches_order(self):
        t = FairshareTracker()
        j1 = make_job(id=1, user=1, submit=3.0)
        j2 = make_job(id=2, user=2, submit=1.0)
        order = t.order(lanes_of([j1, j2]), now=10.0)
        keys = sorted([j1, j2], key=lambda j: t.priority_key(j, 10.0))
        assert [j.id for j in order] == [j.id for j in keys]


class TestHeavyUsers:
    def test_heavy_above_mean(self):
        t = FairshareTracker()
        big = make_job(id=1, user=1, nodes=100)
        small = make_job(id=2, user=2, nodes=1)
        t.job_started(big, now=0.0)
        t.job_started(small, now=0.0)
        t.job_finished(big, now=100.0)
        t.job_finished(small, now=100.0)
        assert t.is_heavy(1, now=100.0)
        assert not t.is_heavy(2, now=100.0)

    def test_nobody_heavy_without_usage(self):
        assert not FairshareTracker().is_heavy(1, now=0.0)

    def test_heavy_factor_scales_threshold(self):
        t = FairshareTracker()
        a, b = make_job(id=1, user=1, nodes=3), make_job(id=2, user=2, nodes=2)
        t.job_started(a, 0.0)
        t.job_started(b, 0.0)
        t.job_finished(a, 100.0)  # 300
        t.job_finished(b, 100.0)  # 200; mean 250
        assert t.is_heavy(1, 100.0, heavy_factor=1.0)
        assert not t.is_heavy(1, 100.0, heavy_factor=1.5)

    def test_heavy_status_decays_away(self):
        t = FairshareTracker(decay_factor=0.5)
        big = make_job(id=1, user=1, nodes=100)
        t.job_started(big, 0.0)
        t.job_finished(big, 100.0)
        small = make_job(id=2, user=2, nodes=10)
        t.job_started(small, 100.0)
        assert t.is_heavy(1, now=200.0)
        # user 2 keeps running while user 1 decays; eventually 1 is light
        for k in range(10):
            t.decay(DAY * (k + 1))
        assert not t.is_heavy(1, now=10 * DAY)


#: one tracker operation: (kind, user, nodes, seconds since the last one)
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["start", "finish", "settle", "decay", "mean"]),
        st.integers(1, 4),
        st.integers(1, 64),
        st.sampled_from([0.0, 1e-12, 1e-9, 0.5, 30.0, 3600.0, DAY]),
    ),
    max_size=40,
)


class TestMeanCache:
    @settings(max_examples=150, deadline=None)
    @given(ops=_OPS, factor=st.sampled_from([0.0, 1e-9, 0.5, 1.0]))
    def test_cached_mean_is_a_fresh_mean(self, ops, factor):
        """Across settles, decays (tiny accounts deleted), starts and
        finishes, the cached mean equals one computed from scratch, bit
        for bit."""
        t = FairshareTracker(decay_factor=factor)
        running, now, next_id = [], 0.0, 1
        for kind, user, nodes, dt in ops:
            now += dt
            if kind == "start":
                job = make_job(id=next_id, user=user, nodes=nodes)
                next_id += 1
                t.job_started(job, now)
                running.append(job)
            elif kind == "finish" and running:
                t.job_finished(running.pop(user % len(running)), now)
            elif kind == "settle":
                t.settle(now)
            elif kind == "decay":
                t.decay(now)
            cached = t.mean_active_usage(now)
            vals = [u for u in t._usage.values() if u > 0]
            fresh = sum(vals) / len(vals) if vals else 0.0
            assert cached == fresh
