"""Scheduler-invariant suite: every registered policy, one harness.

Property-based (hypothesis) checks that hold for *any* correct scheduler,
run against every key in the policy registry — including the size-based
and baseline policies of the frontier.  Adding a policy to
``sched/registry.py`` automatically enrolls it here.

Invariants:

* no job starts before its arrival;
* node capacity is never exceeded at any instant (checked both by the
  engine's internal cluster validation and by an independent sweep over
  the reported start/end intervals);
* reservations are honored: with ``validate=True`` the cluster
  self-checks after every event, so a scheduler double-booking a
  reservation dies inside the run, not in a later assertion;
* every submitted job completes (or is killed by an explicit kill
  policy) — the engine refuses to end with queued or running jobs;
* work conservation: with honest estimates (no overruns, no kills) the
  executed processor-seconds equal the submitted processor-seconds;
* after every scheduling pass the scheduler's per-user lanes hold
  exactly its queue, each lane in ``(submit_time, id)`` order — across
  CPlant's starvation-queue transfer and chunk successors too.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import KillPolicy, Observer
from repro.core.job import Job
from repro.experiments.runner import RunOptions, run_policy
from repro.sched.registry import get_policy, policy_names
from repro.workload.model import Workload

SIZE = 16

ALL_POLICIES = policy_names()


def job_lists(max_jobs=18, size=SIZE, min_wcl_factor=0.5):
    """Random job batches; ``min_wcl_factor >= 1`` forbids overruns."""
    return st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=5000.0),   # submit
            st.integers(min_value=1, max_value=size),     # nodes
            st.floats(min_value=1.0, max_value=2000.0),   # runtime
            st.floats(min_value=min_wcl_factor, max_value=4.0),
            st.integers(min_value=1, max_value=4),        # user
        ),
        min_size=1, max_size=max_jobs,
    ).map(lambda rows: [
        Job(id=i + 1, submit_time=s, nodes=n, runtime=r,
            wcl=max(r * f, 1.0), user_id=u)
        for i, (s, n, r, f, u) in enumerate(rows)
    ])


def _peak_usage(jobs) -> int:
    """Max simultaneous node usage from reported (start, end, nodes).

    Releases sort before same-instant acquisitions (negative delta first),
    matching the engine's free-then-allocate event order.
    """
    deltas = []
    for j in jobs:
        deltas.append((j.start_time, j.nodes))
        deltas.append((j.end_time, -j.nodes))
    used = peak = 0
    for _, d in sorted(deltas):
        used += d
        peak = max(peak, used)
    return peak


def _check_core_invariants(result) -> None:
    for j in result.jobs:
        assert j.start_time is not None and j.end_time is not None
        assert j.start_time >= j.submit_time - 1e-9, (
            f"job {j.id} started at {j.start_time} before its arrival "
            f"at {j.submit_time}"
        )
        assert j.end_time >= j.start_time
        assert j.end_time - j.start_time <= j.runtime + 1e-6, (
            f"job {j.id} ran {j.end_time - j.start_time}s, "
            f"longer than its runtime {j.runtime}s"
        )
        assert 1 <= j.nodes <= result.cluster_size
    peak = _peak_usage(result.jobs)
    assert peak <= result.cluster_size, (
        f"peak usage {peak} exceeds the {result.cluster_size}-node cluster"
    )


@pytest.mark.parametrize("policy", ALL_POLICIES)
class TestEveryRegisteredPolicy:
    @given(jobs=job_lists(min_wcl_factor=1.0))
    @settings(max_examples=20, deadline=None)
    def test_invariants_without_overruns(self, policy, jobs):
        """Honest estimates: all core invariants plus work conservation."""
        wl = Workload(jobs, SIZE, name="prop")
        run = run_policy(wl, policy, RunOptions(validate=True))
        _check_core_invariants(run.result)
        # every trace job is accounted for: unsplit jobs by id, chunked
        # chains by parent id (the runtime-limit transform)
        done = {j.parent_id if j.is_chunk else j.id for j in run.result.jobs}
        assert done == {j.id for j in jobs}
        # work conservation: no overruns and no kills, so executed
        # processor-seconds equal submitted processor-seconds exactly
        submitted = sum(j.nodes * j.runtime for j in jobs)
        assert run.result.total_work == pytest.approx(submitted, rel=1e-9)

    @given(jobs=job_lists())
    @settings(max_examples=10, deadline=None)
    def test_invariants_under_overruns_and_kills(self, policy, jobs):
        """Underestimating jobs overrun and may be killed; the capacity
        and arrival invariants must survive every kill policy."""
        wl = Workload(jobs, SIZE, name="prop-overrun")
        for kp in (KillPolicy.IF_NEEDED, KillPolicy.AT_WCL):
            run = run_policy(wl, policy, RunOptions(kill_policy=kp, validate=True))
            _check_core_invariants(run.result)

    @given(jobs=job_lists(max_jobs=10))
    @settings(max_examples=10, deadline=None)
    def test_deterministic_replay(self, policy, jobs):
        """Two identical runs digest identically (no hidden state, no
        iteration-order dependence) — the property the campaign cache
        and the fairness matrix rely on."""
        wl = Workload(jobs, SIZE, name="prop-replay")
        a = run_policy(wl, policy).result.digest()
        b = run_policy(wl, policy).result.digest()
        assert a == b


class LaneChecker(Observer):
    """After every pass, checks the scheduler's lanes against its queue
    and counts what the run exercised."""

    def __init__(self) -> None:
        self.passes = 0
        self.starved = 0
        self.successors = 0

    def on_attach(self, engine) -> None:
        self.engine = engine

    def on_arrival(self, job, now) -> None:
        self.successors += job.is_chunk and job.chunk_index > 0

    def on_schedule_pass(self, now, reason, queue_depth, running, free_nodes,
                         started) -> None:
        sched = self.engine.scheduler
        lanes = sched.lanes
        assert lanes.users == sorted(lanes.lanes)
        laned = []
        for user, lane in lanes.lanes.items():
            assert lane and all(job.user_id == user for job in lane)
            keys = [(job.submit_time, job.id) for job in lane]
            assert keys == sorted(keys)
            laned.extend(lane)
        assert len(laned) == len(sched.queue)
        assert {id(job) for job in laned} == {id(job) for job in sched.queue}
        self.starved += bool(getattr(sched, "starvation_queue", ()))
        self.passes += 1


def long_jobs(seed: int, n: int = 14):
    """Jobs long enough that 72 h limits split them into chunk chains and
    wide ones block the machine past the 24 h starvation threshold."""
    rng = random.Random(seed)
    jobs = []
    for i in range(n):
        runtime = rng.choice([600.0, 3e4, 1.2e5, 3e5, rng.uniform(1.0, 3e5)])
        jobs.append(Job(id=i + 1, submit_time=rng.uniform(0.0, 2e5),
                        nodes=rng.choice([1, 2, 8, SIZE, rng.randint(1, SIZE)]),
                        runtime=runtime,
                        wcl=max(runtime * rng.uniform(0.5, 4.0), 1.0),
                        user_id=rng.randint(1, 4)))
    return jobs


def run_lane_checked(policy: str, seed: int) -> LaneChecker:
    checker = LaneChecker()
    run_policy(Workload(long_jobs(seed), SIZE, name="lanes"), policy,
               observers=[checker])
    assert checker.passes > 0
    return checker


@pytest.mark.parametrize("policy", ALL_POLICIES)
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=8, deadline=None)
def test_lanes_hold_exactly_the_queue(policy, seed):
    run_lane_checked(policy, seed)


def test_lane_workloads_reach_starvation_and_chunk_successors():
    """The workload family above really moves jobs to CPlant's
    starvation queue and submits chunk successors."""
    runs = [run_lane_checked("cplant24.72max.all", seed) for seed in range(8)]
    assert sum(run.starved for run in runs) > 0
    assert sum(run.successors for run in runs) > 0


def test_every_policy_is_enrolled():
    """The suite covers the whole registry — a policy registered without
    riding through these invariants is a bug in this file."""
    assert len(ALL_POLICIES) >= 22
    for key in ALL_POLICIES:
        assert get_policy(key).key == key
