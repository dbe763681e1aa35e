"""Differential tests for the optimized hot-path data structures.

The reservation profile and the compact free-timeline are the two
structures the perf work rewrote; each is pitted against a brute-force
reference model under long randomized operation sequences.  Any divergence
in a returned start time, an availability query, or the canonical segment
representation fails loudly with the op index.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.cluster import AllocationError, Cluster
from repro.core.engine import Engine
from repro.core.listsched import FreeTimeline, RunningTimeline
from repro.core.profile import ProfileError, ReservationProfile
from repro.obs import counters
from repro.sched.conservative import (
    OVERRUN_EXTENSION,
    ConservativeScheduler,
    RunningProfile,
)
from repro.sched.depthk import DepthKScheduler
from tests.conftest import make_job
from tests.listsched_reference import ListScheduler


class ReferenceProfile:
    """Brute-force availability model: a bag of (time, delta) breakpoints.

    Every query walks the whole bag; nothing is incremental, cached, or
    coalesced, so it cannot share a bug with the optimized structure.
    """

    def __init__(self, size: int, start_time: float = 0.0) -> None:
        self.size = size
        self.origin = start_time
        self.deltas: dict = {}

    def _bump(self, t: float, d: int) -> None:
        v = self.deltas.get(t, 0) + d
        if v:
            self.deltas[t] = v
        else:
            self.deltas.pop(t, None)

    def reserve(self, start: float, end: float, nodes: int) -> None:
        self._bump(start, -nodes)
        self._bump(end, +nodes)

    def release(self, start: float, end: float, nodes: int) -> None:
        self.reserve(start, end, -nodes)

    def advance(self, now: float) -> None:
        self.origin = max(self.origin, now)

    def available_at(self, t: float) -> int:
        return self.size + sum(d for tt, d in self.deltas.items() if tt <= t)

    def min_available(self, start: float, end: float) -> int:
        points = [start] + [t for t in self.deltas if start < t < end]
        return min(self.available_at(p) for p in points)

    def earliest_fit(self, nodes: int, duration: float, earliest: float,
                     before: float = math.inf):
        """First anchor (``earliest`` or a later breakpoint) below
        ``before`` whose window, clipped at ``before``, fits; else None."""
        earliest = max(earliest, self.origin)
        candidates = [earliest] + sorted(t for t in self.deltas if t > earliest)
        for c in candidates:
            if c >= before:
                return None
            if self.min_available(c, min(c + duration, before)) >= nodes:
                return c
        raise AssertionError("unbounded tail should always fit")

    def segments(self, from_time=None):
        """Canonical coalesced (start, avail) list from ``from_time``.

        ``advance`` into the interior of a segment keeps the optimized
        profile's head at the segment start (there is nothing to trim), so
        the comparison anchors at the profile's actual head time.
        """
        t0 = self.origin if from_time is None else from_time
        out = [(t0, self.available_at(t0))]
        for t in sorted(t for t in self.deltas if t > t0):
            a = self.available_at(t)
            if a != out[-1][1]:
                out.append((t, a))
        return out


@pytest.mark.parametrize("seed, n_ops", [(0, 10_000), (1, 2_000)])
def test_randomized_differential_profile(seed, n_ops):
    """10k mixed fit/reserve/release/advance/query ops, optimized vs naive:
    ``earliest_fit``, ``reserve_fitted`` and ``release_reserved`` against
    the brute-force model.

    The reference is deliberately quadratic, so only the first seed runs
    the full 10k ops; the second covers a different machine size cheaply.
    """
    rng = np.random.default_rng(seed)
    size = int(rng.integers(8, 200))
    opt = ReservationProfile(size)
    ref = ReferenceProfile(size)
    now = 0.0
    active = []  # (start, end, nodes) rectangles currently reserved

    for op_i in range(n_ops):
        op = rng.random()
        if op < 0.45:
            # fit + reserve
            nodes = int(rng.integers(1, size + 1))
            duration = float(np.round(rng.uniform(1, 500), 3))
            earliest = now + float(np.round(rng.uniform(0, 300), 3))
            got = opt.earliest_fit(nodes, duration, earliest)
            want = ref.earliest_fit(nodes, duration, earliest)
            assert got == want, f"op {op_i}: earliest_fit {got} != {want}"
            opt.reserve_fitted(got, got + duration, nodes)
            ref.reserve(got, got + duration, nodes)
            active.append((got, got + duration, nodes))
        elif op < 0.70 and active:
            # release one active rectangle, clipped to the present the way
            # the compression pass does
            s, e, n = active.pop(int(rng.integers(len(active))))
            s = max(s, now)
            if e > s:
                opt.release_reserved(s, e, n)
                ref.release(s, e, n)
        elif op < 0.80:
            now += float(np.round(rng.uniform(0, 400), 3))
            opt.advance(now)
            ref.advance(now)
            # drop fully-elapsed rectangles; their effect is history
            active = [(s, e, n) for s, e, n in active if e > now]
        elif op < 0.90:
            t = now + float(rng.uniform(0, 2000))
            assert opt.available_at(t) == ref.available_at(t), f"op {op_i}"
        else:
            a = now + float(rng.uniform(0, 1000))
            b = a + float(rng.uniform(1, 1000))
            assert opt.min_available(a, b) == ref.min_available(a, b), f"op {op_i}"

        if op_i % 500 == 0:
            opt.check_invariants()
            # mutation keeps the profile canonically coalesced: its
            # representation must equal the reference's canonical segments
            assert list(zip(opt.times, opt.avail)) == ref.segments(opt.times[0]), f"op {op_i}"

    opt.check_invariants()
    assert list(zip(opt.times, opt.avail)) == ref.segments(opt.times[0])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_earliest_fit_before_matches_reference(seed):
    """``earliest_fit(..., before=b)`` against the brute-force model on
    random profiles: the same anchor, or None exactly when no anchor
    below ``b`` has a clipped window that fits.  ``before=inf`` is the
    unbounded search, and an unfitting bounded query leaves the profile
    untouched."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(4, 40))
    opt = ReservationProfile(size)
    ref = ReferenceProfile(size)
    now = 0.0
    nones = hits = 0
    for op_i in range(400):
        if rng.random() < 0.3:
            now += float(rng.choice([0.0, 5.0, np.round(rng.uniform(0, 50), 2)]))
            opt.advance(now)
            ref.advance(now)
        nodes = int(rng.integers(1, size + 1))
        duration = float(rng.choice([10.0, 50.0, np.round(rng.uniform(1, 200), 2)]))
        earliest = now + float(rng.choice([0.0, np.round(rng.uniform(0, 100), 2)]))
        full = opt.earliest_fit(nodes, duration, earliest)
        assert full == opt.earliest_fit(nodes, duration, earliest, math.inf)
        assert full == ref.earliest_fit(nodes, duration, earliest), f"op {op_i}"
        # bounds at, between and beyond breakpoints, and at the anchors
        points = opt.times + [full, full + duration, earliest]
        before = float(rng.choice(points)) + float(rng.choice([0.0, -0.5, 0.5]))
        times, avail = list(opt.times), list(opt.avail)
        got = opt.earliest_fit(nodes, duration, earliest, before)
        want = ref.earliest_fit(nodes, duration, earliest, before)
        assert got == want, f"op {op_i}: before={before}: {got} != {want}"
        assert (opt.times, opt.avail) == (times, avail)
        if got is None:
            nones += 1
        else:
            hits += 1
            assert got < before and got <= full
        opt.reserve_fitted(full, full + duration, nodes)
        ref.reserve(full, full + duration, nodes)
        if rng.random() < 0.3:
            opt.release_reserved(full, full + duration, nodes)
            ref.release(full, full + duration, nodes)
    assert nones > 40 and hits > 40


def test_earliest_fit_before_clips_the_window():
    """A window may run into a later dip past ``before``: only the part
    below ``before`` is checked."""
    p = ReservationProfile(4)
    p.reserve_fitted(30.0, 100.0, 4)
    assert p.earliest_fit(4, 50.0, 0.0) == 100.0
    assert p.earliest_fit(4, 50.0, 0.0, before=30.0) == 0.0
    assert p.earliest_fit(4, 50.0, 70.0, before=100.0) is None
    assert p.earliest_fit(4, 50.0, 0.0, before=0.0) is None


def _start(cluster, running, job, now, end):
    """Start ``job`` the way the reservation schedulers do: on the cluster
    first, so a start it refuses never reaches the running profile."""
    cluster.start(job, now)
    running.start(job, now, end)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_running_profile_matches_brute_force(seed):
    """Random start, finish and refresh sequences on small machines, with
    equal timestamps, predicted ends landing on ``now`` and overruns.
    After every operation ``at(now)`` must equal a profile built with
    reserves from a plain dict that applies the overrun rule."""
    rng = np.random.default_rng(seed)
    steps = [0.0, 25.0, 50.0, 100.0, OVERRUN_EXTENSION]
    for trial in range(40):
        size = int(rng.integers(1, 9))
        cluster = Cluster(size)
        running = RunningProfile(cluster)
        ends = {}  # running job id -> [nodes, predicted end]
        jobs = {}
        now = 0.0
        for op in range(60):
            r = rng.random()
            if r < 0.25:
                now += float(rng.choice(steps))
            elif r < 0.55:
                job = make_job(id=len(jobs) + 1,
                               nodes=int(rng.integers(1, size + 1)))
                end = now + float(rng.choice(steps))
                if job.nodes > cluster.free_nodes:
                    with pytest.raises(AllocationError, match="only"):
                        _start(cluster, running, job, now, end)
                    continue
                _start(cluster, running, job, now, end)
                jobs[job.id] = job
                ends[job.id] = [job.nodes, end]
            elif r < 0.8:
                if not ends:
                    continue
                jid = sorted(ends)[int(rng.integers(len(ends)))]
                cluster.finish(jobs[jid], now)
                assert running.finish(jobs[jid], now) == ends.pop(jid)[1]
            else:
                overdue = [occ for occ in ends.values() if occ[1] <= now]
                for occ in overdue:
                    occ[1] = now + OVERRUN_EXTENSION
                assert running.refresh(now) == bool(overdue)
            want = ReservationProfile(size, now)
            for nodes, end in ends.values():
                if end > now:
                    want.reserve_fitted(now, end, nodes)
            want.check_invariants()
            got = running.at(now)
            assert (got.times, got.avail) == (want.times, want.avail), (
                f"trial {trial} op {op}")
            got.check_invariants()


@pytest.mark.parametrize("factory", [
    ConservativeScheduler,
    lambda: DepthKScheduler(depth=math.inf),
], ids=["cons", "consdyn"])
def test_refused_start_leaves_running_profile_alone(factory):
    """Over-subscription fails with the cluster's named error, before the
    scheduler's running profile records the job."""
    sched = factory()
    jobs = [make_job(id=1, nodes=3, runtime=100.0),
            make_job(id=2, nodes=2, runtime=100.0)]
    engine = Engine(Cluster(4), sched, jobs)
    engine.step_until(0.0)
    before = sched.running.at(0.0)
    (queued,) = sched.queue
    if isinstance(sched, ConservativeScheduler):
        sched.reservations[queued.id] = (0.0, 100.0)  # as if it were due
    with pytest.raises(AllocationError, match="needs 2 nodes, only 1 free"):
        sched.start(queued, 0.0)
    assert sched.running.ends == {1: 100.0}
    after = sched.running.at(0.0)
    assert (after.times, after.avail) == (before.times, before.avail)


def test_advance_merges_redundant_head():
    """Satellite fix: advancing into history must not leave a breakpoint
    between a head segment and an equal successor."""
    p = ReservationProfile(10)
    # hand-build an uncoalesced profile (the API can no longer produce one)
    p.times = [0.0, 50.0, 100.0]
    p.avail = [4, 10, 10]
    p.advance(60.0)
    assert p.times == [60.0]
    assert p.avail == [10]
    p.check_invariants()


def free_times(tl: FreeTimeline) -> list:
    """A timeline's full per-node free-time multiset, sorted, after
    checking that its (time, count) form is canonical."""
    assert all(a < b for a, b in zip(tl._times, tl._times[1:])), tl._times
    assert all(c > 0 for c in tl._counts), tl._counts
    assert sum(tl._counts) == tl.size
    return [t for t, c in zip(tl._times, tl._counts) for _ in range(c)]


def running_timeline(size: int, pairs) -> RunningTimeline:
    running = RunningTimeline(size)
    for nodes, end in pairs:
        running.add(end, nodes)
    return running


class TestFreeTimelineDifferential:
    """FreeTimeline and RunningTimeline (compact multisets) vs the
    per-node ListScheduler reference in tests/listsched_reference.py."""

    @pytest.mark.parametrize("seed", [0, 5])
    def test_random_places_match(self, seed):
        """One long stream, extended a job at a time with a rising
        ``earliest``: every prefix leaves the same starts and free times."""
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 300))
        ls = ListScheduler(size)
        tl = FreeTimeline(size)
        now = 0.0
        for i in range(2_000):
            job = make_job(id=i, nodes=int(rng.integers(1, size + 1)))
            duration = float(np.round(rng.uniform(0, 300), 3))
            now += float(np.round(rng.uniform(0, 30), 3))
            s1 = ls.place(job.nodes, duration, earliest=now)
            s2 = tl.place_sequence([job], {job.id: duration}, now)
            assert s1 == s2, f"op {i}: start {s2} != {s1}"
            assert sorted(ls.free_times.tolist()) == free_times(tl), f"op {i}"

    def test_from_pairs_matches_from_running(self):
        """A timeline built from (nodes, end) pairs, read at ``now``, is
        the per-node vector the reference builds from the same pairs."""
        rng = np.random.default_rng(11)
        for _ in range(100):
            size = int(rng.integers(2, 200))
            now = float(rng.uniform(0, 100))
            pairs = []
            remaining = size
            while remaining and rng.random() < 0.8:
                w = int(rng.integers(1, remaining + 1))
                # ends may precede now (running past the estimate): clamped
                pairs.append((w, now + float(rng.uniform(-50, 400))))
                remaining -= w
            ls = ListScheduler.from_running(size, now, pairs)
            tl = running_timeline(size, pairs).at(now)
            assert sorted(ls.free_times.tolist()) == free_times(tl)

    def test_place_sequence_matches_place(self):
        """Every prefix of an order, placed in one call on a base read
        from a running timeline, starts its last job where the reference
        does and leaves the same free times."""
        rng = np.random.default_rng(3)
        for _ in range(50):
            size = int(rng.integers(2, 100))
            now = float(rng.uniform(0, 100))
            pairs = [(1, now + float(rng.uniform(-20, 300))) for _ in range(2)]
            jobs = [make_job(id=i, nodes=int(rng.integers(1, size + 1)))
                    for i in range(int(rng.integers(1, 30)))]
            durations = {j.id: float(np.round(rng.uniform(0, 200), 2))
                         for j in jobs}
            base = running_timeline(size, pairs).at(now)
            ref = ListScheduler.from_running(size, now, pairs)
            for k, job in enumerate(jobs, 1):
                start = ref.place(job.nodes, durations[job.id], earliest=now)
                fused = base.copy()
                with counters.collect() as c:
                    last = fused.place_sequence(jobs[:k], durations, now)
                assert last == start, f"prefix {k}"
                assert free_times(fused) == sorted(ref.free_times.tolist())
                assert c.as_dict() == {"listsched.place": k}

    def test_running_timeline_matches_from_pairs(self):
        """The persistent multiset, clamped at ``now``, is the per-node
        vector rebuilt from its (nodes, end) pairs: ends before or at
        ``now``, equal ends, a full machine, occupations removed again,
        and moving ends merged at arrival."""
        rng = np.random.default_rng(17)
        for _ in range(200):
            size = int(rng.integers(1, 64))
            running = RunningTimeline(size)
            live = {}
            now = 0.0
            for k in range(40):
                now += float(rng.choice([0.0, 5.0, rng.uniform(0, 20)]))
                free = size - sum(n for n, _ in live.values())
                if free and rng.random() < 0.6:
                    nodes = int(rng.integers(1, free + 1))
                    end = float(rng.choice([now, now + 10.0,
                                            now + rng.uniform(-5, 50)]))
                    running.add(end, nodes)
                    live[k] = (nodes, end)
                elif live:
                    key = list(live)[int(rng.integers(0, len(live)))]
                    nodes, end = live.pop(key)
                    running.remove(end, nodes)
                busy = sum(n for n, _ in live.values())
                moving = []
                if busy < size and rng.random() < 0.3:
                    moving = [(size - busy, float(rng.choice(
                        [now, now + 10.0, now + rng.uniform(-5, 50)])))]
                pairs = list(live.values()) + moving
                tl = running.at(now, moving)
                ref = ListScheduler.from_running(size, now, pairs)
                assert free_times(tl) == sorted(ref.free_times.tolist())

    def test_running_timeline_rejects_oversubscription(self):
        running = RunningTimeline(4)
        running.add(10.0, 3)
        with pytest.raises(ValueError, match="over-subscribe"):
            running.add(10.0, 2)
        with pytest.raises(ValueError, match="over-subscribe"):
            running.at(0.0, [(2, 5.0)])
        with pytest.raises(ValueError, match="no occupation"):
            running.remove(11.0, 3)

    def test_copy_is_independent(self):
        tl = FreeTimeline(4)
        clone = tl.copy()
        clone.place_sequence([make_job(id=1, nodes=4)], {1: 100.0}, 0.0)
        assert free_times(tl) == [0.0] * 4
        assert free_times(clone) == [100.0] * 4
