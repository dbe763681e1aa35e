"""Differential tests: schedulers vs. an independent naive simulator.

In the style of ``test_profile_reference.py``: the production schedulers
run on event queues, reservation profiles, and cached orderings, so each
is pitted against a brute-force reference that shares none of that code.
The reference re-scans the whole world at every step — no events, no
profiles, no incremental state — and therefore cannot share a bug with
the optimized stack.  Any divergence in a start time fails with the job
id.

Also here: the exact-fairness differential the fairness matrix's shape
check relies on — FCFS-no-backfill evaluated under the FCFS reference
order is *perfectly* fair with honest estimates, because the
hypothetical no-backfill FCFS schedule the hybrid FST is measured
against IS the real schedule.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import Cluster
from repro.core.engine import Engine
from repro.core.job import Job
from repro.experiments.runner import run_policy
from repro.obs import counters
from repro.sched.nobackfill import NoBackfillScheduler
from repro.sched.roundrobin import RoundRobinScheduler
from repro.workload.model import Workload
from repro.workload.transforms import split_by_runtime_limit

SIZE = 16


def job_lists(max_jobs=20, size=SIZE):
    """Honest-estimate job batches (wcl >= runtime, so no overruns)."""
    return st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=5000.0),   # submit
            st.integers(min_value=1, max_value=size),     # nodes
            st.floats(min_value=1.0, max_value=2000.0),   # runtime
            st.floats(min_value=1.0, max_value=4.0),      # wcl factor
            st.integers(min_value=1, max_value=4),        # user
        ),
        min_size=1, max_size=max_jobs,
    ).map(lambda rows: [
        Job(id=i + 1, submit_time=s, nodes=n, runtime=r,
            wcl=max(r * f, 1.0), user_id=u)
        for i, (s, n, r, f, u) in enumerate(rows)
    ])


def naive_nobackfill(jobs, size, priority):
    """Brute-force strict no-backfill simulator.

    ``priority(job)`` keys the waiting queue; only the head may start.
    Chunk chains are honored the way the engine honors them: a successor
    chunk is resubmitted *as a fresh arrival* at its predecessor's
    completion instant, so the scheduling pass triggered by the
    completion itself runs without it and a second pass follows.
    Returns ``{job id: start time}``.
    """
    succ = {}
    initial = []
    for pos, j in enumerate(jobs):
        if j.is_chunk and j.chunk_index > 0:
            succ[(j.parent_id, j.chunk_index)] = j
        else:
            initial.append((j, pos))

    # same-time arrival events fire in event-push order, which is the
    # job-list position — not job id (chunked lists interleave the two)
    initial.sort(key=lambda e: (e[0].submit_time, e[1]))
    pending = [(j, j.submit_time) for j, _ in initial]
    # (job, effective submit time)
    waiting = []    # (job, submitted at)
    running = []    # (end, job)
    starts = {}
    start_seq = {}  # order jobs started in — completion-event push order
    free = size
    t = 0.0

    def schedule_pass():
        # start from the head while it fits; first blocked job blocks all
        nonlocal free
        waiting.sort(key=lambda e: priority(e[0], e[1]))
        while waiting and waiting[0][0].nodes <= free:
            j, _ = waiting.pop(0)
            starts[j.id] = t
            start_seq[j.id] = len(start_seq)
            free -= j.nodes
            running.append((t + j.runtime, j))

    while pending or waiting or running:
        # mirror the engine's event order at one instant — the queue
        # sorts on (time, kind, seq) with COMPLETION < ARRIVAL, so all
        # simultaneous completions fire first as ONE batch with one
        # scheduling pass; then each arrival gets its own pass, original
        # arrivals (pushed at init) before chain successors (pushed
        # during the completion batch).
        # 1. completions at t free nodes together, then one pass
        done = [(end, j) for end, j in running if end <= t]
        successors = []
        if done:
            # completion events were pushed when their jobs started, so
            # the batch drains — and successors arrive — in start order
            for end, j in sorted(
                done, key=lambda e: (e[0], start_seq[e[1].id])
            ):
                free += j.nodes
                nxt = succ.get((j.parent_id, j.chunk_index + 1)) \
                    if j.is_chunk else None
                if nxt is not None:
                    successors.append(nxt)
            running = [(end, j) for end, j in running if end > t]
            schedule_pass()
        # 2. original arrivals at or before t, one pass per arrival
        due = [(j, s) for j, s in pending if s <= t]
        pending = [(j, s) for j, s in pending if s > t]
        for j, s in due:
            waiting.append((j, s))
            schedule_pass()
        # 3. successors arrive last, one pass per arrival
        for j in successors:
            waiting.append((j, t))
            schedule_pass()
        # 4. advance to the next completion or arrival
        horizon = [end for end, _ in running] + [s for _, s in pending]
        if not horizon:
            break
        t = min(horizon)
    return starts


def _starts(result) -> dict:
    return {j.id: j.start_time for j in result.jobs}


def _assert_same_starts(ours: dict, reference: dict) -> None:
    assert set(ours) == set(reference)
    for jid in sorted(ours):
        assert ours[jid] == pytest.approx(reference[jid], abs=1e-6), (
            f"job {jid}: scheduler started it at {ours[jid]}, "
            f"reference says {reference[jid]}"
        )


def _fcfs_key(job, submitted):
    return (submitted, job.id)


def _spt_key(job, submitted):
    return (job.wcl, submitted, job.id)


class TestAgainstNaiveSimulator:
    @given(jobs=job_lists())
    @settings(max_examples=40, deadline=None)
    def test_fcfs_nobackfill_matches_reference(self, jobs):
        wl = Workload(jobs, SIZE, name="diff")
        run = run_policy(wl, "fcfs.nobackfill", validate=True)
        _assert_same_starts(
            _starts(run.result), naive_nobackfill(jobs, SIZE, _fcfs_key)
        )

    @given(jobs=job_lists())
    @settings(max_examples=40, deadline=None)
    def test_spt_nobackfill_matches_reference(self, jobs):
        wl = Workload(jobs, SIZE, name="diff")
        run = run_policy(wl, "spt.nobackfill", validate=True)
        _assert_same_starts(
            _starts(run.result), naive_nobackfill(jobs, SIZE, _spt_key)
        )

    def test_fcfs_nobackfill_matches_reference_on_fixture(self, small_workload):
        run = run_policy(small_workload, "fcfs.nobackfill")
        reference = naive_nobackfill(
            small_workload.jobs, small_workload.system_size, _fcfs_key
        )
        _assert_same_starts(_starts(run.result), reference)

    @given(jobs=job_lists(max_jobs=12))
    @settings(max_examples=25, deadline=None)
    def test_srpt_nobackfill_matches_reference_with_chunking(self, jobs):
        """SRPT with chunk chains: remaining work = own estimate + the
        chain tail.  The reference computes tails by brute-force summing
        the later chunks of each chain, independent of the engine's
        precomputed oracle."""
        wl = split_by_runtime_limit(Workload(jobs, SIZE, name="diff"), 500.0)
        tails = {}
        by_parent = {}
        for j in wl.jobs:
            if j.is_chunk:
                by_parent.setdefault(j.parent_id, []).append(j)
        for chunks in by_parent.values():
            chunks.sort(key=lambda c: c.chunk_index)
            for i, c in enumerate(chunks):
                tails[c.id] = sum(x.wcl for x in chunks[i + 1:])

        def srpt_key(job, submitted):
            return (job.wcl + tails.get(job.id, 0.0), submitted, job.id)

        result = Engine(
            Cluster(SIZE), NoBackfillScheduler(priority="srpt"), wl.jobs,
            validate=True,
        ).run()
        _assert_same_starts(
            _starts(result), naive_nobackfill(wl.jobs, SIZE, srpt_key)
        )


class ScanRoundRobin(RoundRobinScheduler):
    """Round-robin that rebuilds every user's lane head from the whole
    queue before each start, ignoring the persistent lanes."""

    def schedule(self, now, reason):
        while self.queue:
            heads = {}
            for job in self.queue:
                cur = heads.get(job.user_id)
                if cur is None or (job.submit_time, job.id) < (
                        cur.submit_time, cur.id):
                    heads[job.user_id] = job
            users = sorted(heads)
            if self._last_user is not None:
                users = ([u for u in users if u > self._last_user]
                         + [u for u in users if u <= self._last_user])
            c = counters.ACTIVE
            if c is not None:
                c.hit("rr.rotate")
            for user in users:
                if self.cluster.fits(heads[user]):
                    self._last_user = user
                    self.start(heads[user], now)
                    break
            else:
                return


class TestRoundRobinLanes:
    """The persistent per-user lanes make the scan's start decisions."""

    @given(jobs=job_lists(max_jobs=30))
    @settings(max_examples=40, deadline=None)
    def test_lanes_match_queue_scan_with_chunking(self, jobs):
        # coarse submit times: many simultaneous arrivals, which chunk
        # successors (fresh, higher ids) join out of id order
        jobs = [replace(j, submit_time=float(int(j.submit_time) // 1000 * 1000))
                for j in jobs]
        wl = split_by_runtime_limit(Workload(jobs, SIZE, name="rr"), 500.0)
        runs = []
        for sched in (RoundRobinScheduler(), ScanRoundRobin()):
            with counters.collect() as c:
                result = Engine(Cluster(SIZE), sched,
                                [j.fresh_copy() for j in wl.jobs],
                                max_events=100_000).run()
            runs.append((_starts(result), c.as_dict().get("rr.rotate")))
        assert runs[0] == runs[1]


class TestExactFairnessDifferential:
    """fcfs.nobackfill under the fcfs reference order: the hypothetical
    schedule equals the real one, so no job can miss its FST."""

    @given(jobs=job_lists())
    @settings(max_examples=25, deadline=None)
    def test_fcfs_nobackfill_is_exactly_fair_under_fcfs_order(self, jobs):
        wl = Workload(jobs, SIZE, name="fair-diff")
        run = run_policy(
            wl, "fcfs.nobackfill", reference_orders=("fairshare", "fcfs")
        )
        stats = run.fairness_by_order["fcfs"]
        assert stats.n_unfair == 0
        assert stats.total_miss_time == pytest.approx(0.0, abs=1e-6)

    def test_exact_fairness_on_fixture(self, small_workload):
        run = run_policy(
            small_workload, "fcfs.nobackfill",
            reference_orders=("fairshare", "fcfs"),
        )
        assert run.fairness_by_order["fcfs"].n_unfair == 0
