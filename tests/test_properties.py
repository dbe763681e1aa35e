"""Property-based tests (hypothesis) on the core data structures and the
simulation invariants every policy must uphold."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import Cluster
from repro.core.engine import Engine, KillPolicy
from repro.core.job import Job
from repro.core.profile import ReservationProfile
from repro.sched.conservative import ConservativeScheduler
from repro.sched.depthk import DepthKScheduler
from repro.sched.easy import EasyBackfillScheduler
from repro.sched.nobackfill import NoBackfillScheduler
from repro.sched.noguarantee import NoGuaranteeScheduler
from repro.workload.categories import length_category, width_category
from repro.workload.transforms import split_by_runtime_limit
from repro.workload.model import Workload
from tests.listsched_reference import ListScheduler

# -- strategies -------------------------------------------------------------

SIZE = 16

rects = st.tuples(
    st.floats(min_value=0.0, max_value=1000.0),   # start
    st.floats(min_value=1.0, max_value=500.0),    # duration
    st.integers(min_value=1, max_value=SIZE),     # nodes
)


def job_lists(max_jobs=25, size=SIZE):
    return st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=5000.0),   # submit
            st.integers(min_value=1, max_value=size),     # nodes
            st.floats(min_value=1.0, max_value=2000.0),   # runtime
            st.floats(min_value=0.5, max_value=4.0),      # wcl factor
            st.integers(min_value=1, max_value=4),        # user
        ),
        min_size=1, max_size=max_jobs,
    ).map(lambda rows: [
        Job(id=i + 1, submit_time=s, nodes=n, runtime=r,
            wcl=max(r * f, 1.0), user_id=u)
        for i, (s, n, r, f, u) in enumerate(rows)
    ])


# -- profile properties --------------------------------------------------------


class TestProfileProperties:
    @given(st.lists(rects, max_size=15))
    @settings(max_examples=100, deadline=None)
    def test_fit_reserve_never_oversubscribes(self, jobs):
        p = ReservationProfile(SIZE)
        for start, dur, nodes in jobs:
            s = p.earliest_fit(nodes, dur, start)
            assert s >= start
            p.reserve_fitted(s, s + dur, nodes)
            p.check_invariants()
        assert min(p.avail) >= 0

    @given(st.lists(rects, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_reserve_release_is_identity(self, jobs):
        p = ReservationProfile(SIZE)
        placed = []
        for start, dur, nodes in jobs:
            s = p.earliest_fit(nodes, dur, start)
            p.reserve_fitted(s, s + dur, nodes)
            placed.append((s, s + dur, nodes))
        for s, e, n in reversed(placed):
            p.release_reserved(s, e, n)
        assert p.segments() == [(0.0, float("inf"), SIZE)]

    @given(st.lists(rects, max_size=12), rects)
    @settings(max_examples=100, deadline=None)
    def test_earliest_fit_is_feasible_and_tight(self, jobs, probe):
        p = ReservationProfile(SIZE)
        for start, dur, nodes in jobs:
            s = p.earliest_fit(nodes, dur, start)
            p.reserve_fitted(s, s + dur, nodes)
        after, dur, nodes = probe
        s = p.earliest_fit(nodes, dur, after)
        # feasible at s
        assert p.min_available(s, s + dur) >= nodes
        # not feasible at the requested time if s moved past it
        if s > after:
            assert p.min_available(after, after + dur) < nodes


class TestListSchedulerProperties:
    @given(job_lists())
    @settings(max_examples=60, deadline=None)
    def test_machine_never_oversubscribed(self, jobs):
        """At any instant, placed jobs occupy at most SIZE nodes."""
        ls = ListScheduler(SIZE)
        intervals = []
        for j in sorted(jobs, key=lambda x: x.submit_time):
            s = ls.place(j.nodes, j.runtime, earliest=j.submit_time)
            intervals.append((s, s + j.runtime, j.nodes))
        points = sorted({s for s, _, _ in intervals})
        for t in points:
            used = sum(n for s, e, n in intervals if s <= t < e)
            assert used <= SIZE

    @given(job_lists())
    @settings(max_examples=60, deadline=None)
    def test_placement_monotone_in_order(self, jobs):
        """Adding a job never moves earlier jobs (prefix independence)."""
        full = ListScheduler(SIZE).schedule_all(jobs, now=0.0)
        prefix = ListScheduler(SIZE).schedule_all(jobs[:-1], now=0.0)
        for j in jobs[:-1]:
            assert full[j.id] == prefix[j.id]


class TestSimulationProperties:
    FACTORIES = [
        lambda: NoBackfillScheduler("fcfs"),
        lambda: EasyBackfillScheduler("fcfs"),
        lambda: NoGuaranteeScheduler(starvation_threshold=1800.0),
        lambda: ConservativeScheduler(),
        lambda: DepthKScheduler(depth=math.inf),
    ]

    @given(job_lists(), st.integers(min_value=0, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_every_policy_completes_everything(self, jobs, which):
        res = Engine(
            Cluster(SIZE), self.FACTORIES[which](), jobs, validate=True,
        ).run()
        assert len(res.jobs) == len(jobs)
        for j in res.jobs:
            assert j.start_time >= j.submit_time
            assert j.end_time == j.start_time + j.runtime

    @given(job_lists(), st.integers(min_value=0, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_kill_at_wcl_bounds_runtime(self, jobs, which):
        res = Engine(
            Cluster(SIZE), self.FACTORIES[which](), jobs,
            kill_policy=KillPolicy.AT_WCL, validate=True,
        ).run()
        for j in res.jobs:
            assert j.end_time - j.start_time <= j.wcl + 1e-9

    @given(job_lists(max_jobs=15))
    @settings(max_examples=30, deadline=None)
    def test_work_conserved_across_policies(self, jobs):
        """Total executed proc-seconds is policy-independent (no kills)."""
        totals = set()
        for mk in self.FACTORIES:
            res = Engine(Cluster(SIZE), mk(), jobs).run()
            totals.add(round(res.total_work, 3))
        assert len(totals) == 1


class TestConservativeGuarantee:
    @given(job_lists(max_jobs=20))
    @settings(max_examples=40, deadline=None)
    def test_arrival_reservation_is_upper_bound_with_accurate_estimates(self, jobs):
        """Conservative backfilling's core promise: with wcl == runtime
        (nothing ever finishes early or late), every job starts exactly at
        its arrival-time reservation."""
        accurate = [
            Job(id=j.id, submit_time=j.submit_time, nodes=j.nodes,
                runtime=j.runtime, wcl=j.runtime, user_id=j.user_id)
            for j in jobs
        ]
        sched = ConservativeScheduler(priority="fcfs")
        recorded = {}
        original_enqueue = sched.enqueue

        def spy(job, now):
            original_enqueue(job, now)
            recorded[job.id] = sched.reservations[job.id][0]

        sched.enqueue = spy
        res = Engine(Cluster(SIZE), sched, accurate, validate=True).run()
        for j in res.jobs:
            assert j.start_time <= recorded[j.id] + 1e-6

    @given(job_lists(max_jobs=20))
    @settings(max_examples=40, deadline=None)
    def test_overestimates_never_violate_bound(self, jobs):
        """With wcl >= runtime, compression may improve but never worsen
        the arrival-time reservation."""
        padded = [
            Job(id=j.id, submit_time=j.submit_time, nodes=j.nodes,
                runtime=j.runtime, wcl=max(j.wcl, j.runtime), user_id=j.user_id)
            for j in jobs
        ]
        sched = ConservativeScheduler(priority="fcfs")
        recorded = {}
        original_enqueue = sched.enqueue

        def spy(job, now):
            original_enqueue(job, now)
            recorded[job.id] = sched.reservations[job.id][0]

        sched.enqueue = spy
        res = Engine(Cluster(SIZE), sched, padded, validate=True).run()
        for j in res.jobs:
            assert j.start_time <= recorded[j.id] + 1e-6


class TestTransformProperties:
    @given(job_lists(max_jobs=12), st.floats(min_value=100.0, max_value=1500.0))
    @settings(max_examples=60, deadline=None)
    def test_split_preserves_work_and_width(self, jobs, limit):
        wl = Workload(jobs, system_size=SIZE, name="p")
        out = split_by_runtime_limit(wl, limit)
        assert sum(c.runtime for c in out.jobs) == pytest.approx(
            sum(j.runtime for j in wl.jobs), rel=1e-12
        )
        assert all(c.runtime <= limit + 1e-9 for c in out.jobs)
        assert all(c.wcl <= max(limit, 60.0) + 1e-9 for c in out.jobs)
        by_parent = {}
        for c in out.jobs:
            key = c.parent_id if c.is_chunk else c.id
            by_parent.setdefault(key, []).append(c)
        assert len(by_parent) == len(jobs)


class TestCategoryProperties:
    @given(st.integers(min_value=1, max_value=100_000))
    @settings(max_examples=200, deadline=None)
    def test_every_width_classified_once(self, nodes):
        cat = width_category(nodes)
        assert 0 <= cat <= 10

    @given(st.floats(min_value=0.0, max_value=1e9))
    @settings(max_examples=200, deadline=None)
    def test_every_length_classified_once(self, rt):
        cat = length_category(rt)
        assert 0 <= cat <= 7
