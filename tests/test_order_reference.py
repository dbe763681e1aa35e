"""Differential test: the queue orders vs their tuple-key specs.

``fcfs_order`` sorts by two scalar attribute keys instead of building a
``(submit, id)`` tuple per job; it must equal the plain tuple-key sort
on every input: equal submit times, ids out of submit order (chunk
successors get fresh ids but keep their parent's place), and the
unsorted ``queue + starvation_queue`` concatenation the CPlant
scheduler hands the hybrid-FST observer.

``FairshareTracker.order`` builds the fairshare order user by user from
:class:`UserLanes`, with no per-job key.  Without a target it must equal
the ``(usage, submit, id)`` tuple-key sort of every job in the lanes;
with one it must equal that sort cut just after the target, for every
target.  Both cover ties at equal (zero or nonzero) usage, usage decayed
below 1e-9 and deleted, chunk successors whose submit time is reset at
arrival, and targets that are not last in their own lane.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import Cluster
from repro.core.engine import Engine, Observer
from repro.core.job import Job
from repro.sched.fairshare import FairshareTracker
from repro.sched.noguarantee import NoGuaranteeScheduler
from repro.sched.queues import UserLanes, cut_after, fcfs_order
from repro.workload.model import Workload
from repro.workload.transforms import split_by_runtime_limit

SIZE = 16


def fcfs_spec(jobs):
    return sorted(jobs, key=lambda j: (j.submit_time, j.id))


def fairshare_spec(tracker, jobs, now):
    return sorted(jobs, key=lambda j: (tracker.usage_of(j.user_id, now),
                                       j.submit_time, j.id))


#: queued jobs: few distinct submit times (ties) and ids drawn as a
#: permutation, so id order and submit order disagree
QUEUES = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 1.0, 2.5, 7.0]) | st.floats(0.0, 50.0),
              st.integers(1, 6)),
    max_size=40,
).flatmap(lambda rows: st.permutations(range(1, len(rows) + 1)).map(
    lambda ids: [Job(id=i, submit_time=s, nodes=1, runtime=1.0, wcl=1.0,
                     user_id=u) for i, (s, u) in zip(ids, rows)]))

#: usage history: (user, nodes, seconds run) charged through the tracker;
#: users 5 and 6 never run, so they tie at zero usage
HISTORY = st.lists(
    st.tuples(st.integers(1, 4), st.integers(1, 8),
              st.sampled_from([1.0, 2.0, 10.0]) | st.floats(0.0, 1e5)),
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(QUEUES)
def test_fcfs_order_matches_tuple_sort(jobs):
    assert fcfs_order(jobs, 0.0) == fcfs_spec(jobs)
    assert fcfs_order(list(reversed(jobs)), 0.0) == fcfs_spec(jobs)


def lanes_of(jobs):
    lanes = UserLanes()
    for job in jobs:
        lanes.add(job)
    return lanes


def charged_tracker(history, twins, decay_factor, n_decays):
    """A tracker charged with ``history``; with ``twins`` every run is
    also charged to user ``u + 10``, so ``u`` and its twin tie at equal
    nonzero usage; ``n_decays`` ticks at ``decay_factor`` then shrink
    (and below 1e-9 delete) accounts."""
    tracker = FairshareTracker(decay_factor=decay_factor)
    now = 0.0
    for k, (user, nodes, seconds) in enumerate(history):
        running = [Job(id=10_000 + 2 * k + t, submit_time=now, nodes=nodes,
                       runtime=seconds, wcl=max(seconds, 1.0), user_id=u)
                   for t, u in enumerate((user, user + 10) if twins else (user,))]
        for r in running:
            tracker.job_started(r, now)
        now += seconds
        for r in running:
            tracker.job_finished(r, now)
    for _ in range(n_decays):
        tracker.decay(now)
    return tracker, now


def assert_prefixes_match(tracker, jobs, now):
    lanes = lanes_of(jobs)
    full = fairshare_spec(tracker, jobs, now)
    assert tracker.order(lanes, now) == full
    for target in jobs:
        assert (tracker.order(lanes, now, through=target)
                == cut_after(list(full), target))


#: queued jobs for the prefix check: users 11-14 are the twins of 1-4
TWIN_QUEUES = QUEUES.flatmap(lambda jobs: st.lists(
    st.booleans(), min_size=len(jobs), max_size=len(jobs)).map(
    lambda flip: [Job(id=j.id, submit_time=j.submit_time, nodes=1,
                      runtime=1.0, wcl=1.0,
                      user_id=j.user_id + (10 if f and j.user_id <= 4 else 0))
                  for j, f in zip(jobs, flip)]))


@settings(max_examples=300, deadline=None)
@given(TWIN_QUEUES, HISTORY, st.booleans(),
       st.sampled_from([0.5, 1e-3, 0.0]), st.integers(0, 40))
def test_fairshare_order_matches_tuple_sort(
    jobs, history, twins, decay_factor, n_decays
):
    """The whole lane order, no target: equal and zero usage (twins and
    never-run users), and accounts decayed below 1e-9 and deleted."""
    tracker, now = charged_tracker(history, twins, decay_factor, n_decays)
    assert tracker.order(lanes_of(jobs), now) == fairshare_spec(
        tracker, jobs, now)


@settings(max_examples=300, deadline=None)
@given(TWIN_QUEUES, HISTORY, st.booleans(),
       st.sampled_from([0.5, 1e-3, 0.0]), st.integers(0, 40))
def test_order_through_is_order_cut_at_the_target(
    jobs, history, twins, decay_factor, n_decays
):
    tracker, now = charged_tracker(history, twins, decay_factor, n_decays)
    assert_prefixes_match(tracker, jobs, now)


def test_order_through_ties_and_deleted_accounts():
    """Fixed case: users 1 and 11 tie at nonzero usage, user 2 decayed
    below 1e-9 and was deleted (so ties never-run users 5 and 6 at zero),
    and user 1's earliest job is the target while later ones wait."""
    tracker, now = charged_tracker([(1, 4, 100.0)], True, 0.5, 0)
    tracker.job_started(Job(id=9_999, submit_time=now, nodes=1, runtime=1e-12,
                            wcl=1.0, user_id=2), now)
    tracker.job_finished(Job(id=9_999, submit_time=now, nodes=1, runtime=1e-12,
                             wcl=1.0, user_id=2), now + 1e-12)
    now += 1e-12
    assert 0.0 < tracker.usage_of(2, now) < 1e-9 * 2 ** 3
    for _ in range(3):
        tracker.decay(now)
    assert tracker.usage_of(2, now) == 0.0  # deleted, not just tiny
    assert tracker.usage_of(1, now) == tracker.usage_of(11, now) > 0.0
    jobs = [Job(id=i, submit_time=s, nodes=1, runtime=1.0, wcl=1.0, user_id=u)
            for i, (s, u) in enumerate([(5.0, 1), (1.0, 11), (1.0, 2), (0.0, 5),
                                        (3.0, 6), (1.0, 1), (9.0, 1), (1.0, 5)],
                                       start=1)]
    assert_prefixes_match(tracker, jobs, now)


class OrderChecker(Observer):
    """At every arrival, orders the waiting jobs exactly as the hybrid-FST
    observer does and checks both orders against their specs."""

    def __init__(self) -> None:
        self.checked = 0
        self.starved = 0
        self.successors = 0
        self.lanes = UserLanes()

    def on_attach(self, engine) -> None:
        self.engine = engine

    def on_start(self, job, now) -> None:
        self.lanes.remove(job)

    def on_arrival(self, job, now) -> None:
        sched = self.engine.scheduler
        self.lanes.add(job)
        waiting = sched.waiting_jobs()  # queue + starvation_queue
        self.starved += bool(sched.starvation_queue)
        self.successors += job.is_chunk and job.chunk_index > 0
        assert fcfs_order(waiting, now) == fcfs_spec(waiting)
        full = fairshare_spec(sched.tracker, waiting, now)
        assert sched.tracker.order(self.lanes, now) == full
        # lanes fed from arrivals and starts: every waiting job a target
        for target in waiting:
            assert (sched.tracker.order(self.lanes, now, through=target)
                    == cut_after(list(full), target))
        self.checked += 1


def run_cplant_checked(seed: int) -> OrderChecker:
    """A short starvation threshold and a runtime limit fill both CPlant
    queues, chunk successors included; the checker sees every arrival."""
    rng = random.Random(seed)
    jobs = [
        Job(id=i + 1, submit_time=float(rng.choice([0, 0, 30, 60])
                                        + rng.randint(0, 600)),
            nodes=rng.randint(1, SIZE), runtime=float(rng.randint(10, 1500)),
            wcl=float(rng.randint(1500, 3000)), user_id=rng.randint(1, 4))
        for i in range(30)
    ]
    wl = split_by_runtime_limit(Workload(jobs, SIZE, name="orders"), 400.0)
    checker = OrderChecker()
    Engine(Cluster(SIZE), NoGuaranteeScheduler(starvation_threshold=300.0),
           wl.jobs, observers=[checker]).run()
    assert checker.checked == len(wl.jobs)
    return checker


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_orders_on_cplant_waiting_lists(seed):
    run_cplant_checked(seed)


def test_cplant_waiting_lists_reach_the_starvation_queue():
    """The workload family above really exercises the concatenation and
    re-submits chunk successors."""
    runs = [run_cplant_checked(seed) for seed in range(5)]
    assert sum(run.starved for run in runs) > 0
    assert sum(run.successors for run in runs) > 0
