"""Differential test: the C-keyed queue orders vs their tuple-key specs.

``fcfs_order`` sorts by two scalar attribute keys and
``FairshareTracker.order`` re-sorts that stably by user usage, instead of
building a ``(usage, submit, id)`` tuple per job.  Both must equal the
plain tuple-key sort on every input: usage ties (users who never ran all
sit at 0), equal submit times, ids out of submit order (chunk successors
get fresh ids but keep their parent's place), and the unsorted
``queue + starvation_queue`` concatenation the CPlant scheduler hands the
hybrid-FST observer.
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
from repro.sched.queues import fcfs_order
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


@settings(max_examples=300, deadline=None)
@given(QUEUES, HISTORY, st.booleans())
def test_fairshare_order_matches_tuple_sort(jobs, history, decay):
    tracker = FairshareTracker()
    now = 0.0
    for k, (user, nodes, seconds) in enumerate(history):
        running = Job(id=10_000 + k, submit_time=now, nodes=nodes,
                      runtime=seconds, wcl=max(seconds, 1.0), user_id=user)
        tracker.job_started(running, now)
        now += seconds
        tracker.job_finished(running, now)
    if decay:
        tracker.decay(now)
    assert tracker.order(jobs, now) == fairshare_spec(tracker, jobs, now)


class OrderChecker(Observer):
    """At every arrival, orders the waiting jobs exactly as the hybrid-FST
    observer does and checks both orders against their specs."""

    def __init__(self) -> None:
        self.checked = 0
        self.starved = 0

    def on_attach(self, engine) -> None:
        self.engine = engine

    def on_arrival(self, job, now) -> None:
        sched = self.engine.scheduler
        waiting = sched.waiting_jobs()  # queue + starvation_queue
        self.starved += bool(sched.starvation_queue)
        assert fcfs_order(waiting, now) == fcfs_spec(waiting)
        assert (sched.tracker.order(waiting, now)
                == fairshare_spec(sched.tracker, waiting, now))
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
    """The workload family above really exercises the concatenation."""
    assert sum(run_cplant_checked(seed).starved for seed in range(5)) > 0
