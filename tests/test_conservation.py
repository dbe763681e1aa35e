"""Conservation laws on every sample path.

* Little's law: each job adds one to the queue length when it arrives and
  takes one away when it starts, so the time integral of the queue length
  that :class:`~repro.metrics.queue.QueueObserver` accumulates equals the
  sum of the jobs' waits.  The chunks of a runtime-limited job are
  separate arrivals (a successor arrives when its predecessor completes),
  so each chunk's wait counts on its own.
* Loss of capacity (Eq. 4): a sweep over the job records' submit, start
  and end times rebuilds the integral of ``min(queued nodes, idle nodes)``
  that :class:`~repro.metrics.loc.LossOfCapacityObserver` accumulates
  event by event.
* Chunk chains: the chunks of a runtime-limited job carry exactly its
  runtime between them.
* Eq. 5: a plain loop over the recorded fair-start times and the trace
  jobs' starts rebuilds the fairness counts and mean miss time, for the
  fairshare basis and for every other reference order a case asks for.
* Busy node-seconds: the Figure 3 weekly utilization, summed over the
  weeks, is the raw schedule's executed work, and the running jobs never
  hold more nodes than the cluster has.

Both sides add the same terms in different orders and groupings, so they
agree to float rounding only.  ``REL_TOL`` bounds the gap; it was fixed
before the first run and must not be widened to make a case pass.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.job import Job
from repro.experiments.runner import (
    RunOptions,
    derive_policy_run,
    policy_engine,
)
from repro.metrics.fairness import REFERENCE_ORDERS
from repro.metrics.loc import LossOfCapacityObserver
from repro.metrics.queue import QueueObserver
from repro.metrics.weekly import WEEK
from repro.sched.registry import get_policy
from repro.workload.model import Workload
from repro.workload.transforms import split_by_runtime_limit
from tests.test_digest_regression import (
    ALL_DIGESTS,
    build_digest_workloads,
    run_case,
)

#: relative gap allowed between the queue-length integral and the waits
REL_TOL = 1e-9
SIZE = 16


def assert_littles_law(obs: QueueObserver, jobs) -> None:
    waits = math.fsum(j.start_time - j.submit_time for j in jobs)
    assert obs._len_integral == pytest.approx(waits, rel=REL_TOL, abs=0.0)


@pytest.fixture(scope="module")
def digest_workloads():
    return build_digest_workloads()


@pytest.mark.parametrize("case", sorted(ALL_DIGESTS))
def test_littles_law_on_the_digest_workloads(case, digest_workloads):
    obs = QueueObserver()
    run = run_case(case, digest_workloads, observers=[obs])
    # the engine's jobs: chunks, not the collapsed trace jobs
    assert_littles_law(obs, run.result.jobs)


def swept_wasted_proc_seconds(jobs, size: int) -> float:
    """Eq. 4's numerator from the job records alone: queued nodes rise at
    submit and fall at start, idle nodes fall at start and rise at end,
    and ``min(queued, idle)`` holds until the next record time."""
    deltas = {}  # time -> [queued delta, idle delta]
    for j in jobs:
        deltas.setdefault(j.submit_time, [0, 0])[0] += j.nodes
        at_start = deltas.setdefault(j.start_time, [0, 0])
        at_start[0] -= j.nodes
        at_start[1] -= j.nodes
        deltas.setdefault(j.end_time, [0, 0])[1] += j.nodes
    times = sorted(deltas)
    queued, idle = 0, size
    terms = []
    for t, t_next in zip(times, times[1:]):
        dq, di = deltas[t]
        queued += dq
        idle += di
        assert queued >= 0 and 0 <= idle <= size
        terms.append(min(queued, idle) * (t_next - t))
    return math.fsum(terms)


@pytest.mark.parametrize("case", sorted(ALL_DIGESTS))
def test_loss_of_capacity_on_the_digest_workloads(case, digest_workloads):
    loc = LossOfCapacityObserver()
    run = run_case(case, digest_workloads, observers=[loc])
    swept = swept_wasted_proc_seconds(run.result.jobs, run.result.cluster_size)
    assert loc.wasted_proc_seconds == pytest.approx(swept, rel=REL_TOL, abs=0.0)


@pytest.mark.parametrize("case", sorted(ALL_DIGESTS))
def test_chunk_chains_carry_the_original_runtime(case, digest_workloads):
    """Every trace job longer than the policy's runtime limit runs as one
    whole chain of chunks whose runtimes sum to its own; no other job is
    split."""
    policy, workload = case.split("|")[:2]
    limit = get_policy(policy).max_runtime
    run = run_case(case, digest_workloads)
    chains = {}
    for j in run.result.jobs:
        if j.is_chunk:
            chains.setdefault(j.parent_id, []).append(j)
    for job in digest_workloads[workload].jobs:
        chain = chains.pop(job.id, None)
        if limit is None or job.runtime <= limit:
            assert chain is None, f"job {job.id} was split"
            continue
        assert chain is not None, f"job {job.id} was not split"
        assert sorted(c.chunk_index for c in chain) == list(range(len(chain)))
        assert all(c.chunk_count == len(chain) for c in chain)
        total = math.fsum(c.runtime for c in chain)
        assert total == pytest.approx(job.runtime, rel=REL_TOL, abs=0.0), (
            f"job {job.id}: chunks carry {total} s of {job.runtime} s")
    assert not chains, f"chunks of unknown jobs {sorted(chains)}"


def trace_job_starts_and_fsts(jobs, fst):
    """(start, FST) per trace job: a chunk chain is its first chunk's."""
    out = {}
    for j in jobs:
        if not j.is_chunk:
            out[j.id] = (j.start_time, fst[j.id])
        elif j.chunk_index == 0:
            out[j.parent_id] = (j.start_time, fst[j.id])
    return out


def assert_eq5(stats, jobs, fst, epsilon):
    misses = [max(0.0, start - fair)
              for start, fair in trace_job_starts_and_fsts(jobs, fst).values()]
    n_unfair = 0
    for miss in misses:
        if miss > epsilon:
            n_unfair += 1
    assert stats.n_jobs == len(misses)
    assert stats.n_unfair == n_unfair
    assert stats.percent_unfair == n_unfair / len(misses)
    assert stats.average_miss_time == pytest.approx(
        math.fsum(misses) / len(misses), rel=REL_TOL, abs=0.0)


@pytest.mark.parametrize("case", sorted(ALL_DIGESTS))
def test_eq5_on_the_digest_workloads(case, digest_workloads):
    assert_eq5_for_every_order(run_case(case, digest_workloads))


def assert_eq5_for_every_order(run, epsilon=RunOptions().epsilon):
    series = run.result.series
    assert_eq5(run.fairness, run.result.jobs, series["fst_hybrid"], epsilon)
    for order, stats in (run.fairness_by_order or {}).items():
        name = "fst_hybrid" if order == "fairshare" else f"fst_hybrid_{order}"
        assert_eq5(stats, run.result.jobs, series[name], epsilon)


@pytest.mark.parametrize("case", sorted(ALL_DIGESTS))
def test_busy_node_seconds_on_the_digest_workloads(case, digest_workloads):
    run = run_case(case, digest_workloads)
    jobs, size = run.result.jobs, run.result.cluster_size
    busy = math.fsum(j.nodes * (j.end_time - j.start_time) for j in jobs)
    weekly = math.fsum(u * WEEK * size for u in run.weekly.utilization)
    assert busy > 0
    assert weekly == pytest.approx(busy, rel=REL_TOL, abs=0.0)
    # ends sort before starts at one instant: a job finishing at t frees
    # its nodes for one starting at t
    events = sorted([(j.start_time, 1, j.nodes) for j in jobs]
                    + [(j.end_time, 0, -j.nodes) for j in jobs])
    occupied = 0
    for _, _, delta in events:
        occupied += delta
        assert 0 <= occupied <= size


@st.composite
def job_lists(draw, max_jobs=20):
    """Jobs on a 50 s submit grid with repeated runtimes (simultaneous
    arrivals, starts and completions), some overrunning their estimate."""
    rows = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30),             # submit slot
            st.integers(min_value=1, max_value=SIZE),           # nodes
            st.sampled_from([50.0, 100.0, 250.0, 600.0, 1234.5]),
            st.sampled_from([0.5, 1.0, 2.0]),                   # wcl factor
            st.integers(min_value=1, max_value=4),              # user
        ),
        min_size=1, max_size=max_jobs,
    ))
    return [
        Job(id=i + 1, submit_time=50.0 * s, nodes=n, runtime=r,
            wcl=max(r * f, 1.0), user_id=u)
        for i, (s, n, r, f, u) in enumerate(rows)
    ]


@settings(max_examples=80, deadline=None)
@given(
    jobs=job_lists(),
    policy=st.sampled_from([
        "easy.fairshare", "cons.nomax", "consdyn.nomax", "cplant24.nomax.all",
        "fcfs.nobackfill", "fsp.easy", "rr.user",
    ]),
    kill=st.sampled_from(["NEVER", "AT_WCL", "IF_NEEDED"]),
    chunk=st.sampled_from([None, 100.0, 300.0]),
)
def test_littles_law_under_hypothesis(jobs, policy, kill, chunk):
    wl = Workload(jobs, SIZE)
    if chunk is not None:
        wl = split_by_runtime_limit(wl, chunk)  # chunk chains
    obs = QueueObserver()
    engine = policy_engine(get_policy(policy), SIZE,
                           RunOptions(kill_policy=kill), wl.jobs, [obs])
    assert_littles_law(obs, engine.run().jobs)


@settings(max_examples=60, deadline=None)
@given(
    jobs=job_lists(),
    policy=st.sampled_from(["easy.fairshare", "cons.nomax", "rr.user"]),
    chunk=st.sampled_from([100.0, 300.0]),
)
def test_eq5_on_chunk_chains_under_hypothesis(jobs, policy, chunk):
    """On the digest cases no chunk chain misses its FST; here chains
    queue on a small cluster, so the first-chunk collapse is exercised."""
    wl = split_by_runtime_limit(Workload(jobs, SIZE), chunk)
    options = RunOptions(reference_orders=tuple(REFERENCE_ORDERS))
    engine = policy_engine(get_policy(policy), SIZE, options, wl.jobs)
    run = derive_policy_run(policy, engine.run(), options, split=True)
    assert_eq5_for_every_order(run)
