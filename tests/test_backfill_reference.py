"""Differential tests: reservation-profile schedulers vs their full passes.

``tests/backfill_reference.py`` keeps the plain loops: a depth-k pass
that places every queued job, and a compression that releases, re-fits
and re-reserves every queued job.  The production schedulers skip work
that cannot change the outcome, so on every workload both sides must
agree exactly: the same digest, the same starts in the same order at
the same instants, and for conservative backfilling the same
reservations and the same profile lists after every pass.

The generated workloads run on 4-16 node machines and mix equal submit
times, completions within ``EPS`` of each other, estimates far below
the runtime (jobs overrun under ``KillPolicy.NEVER``), estimates at or
below ``EPS``, and chunk chains from the runtime-limit transform.
"""

from __future__ import annotations

import math

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import Cluster
from repro.core.engine import Engine
from repro.core.job import Job
from repro.obs import counters
from repro.sched.conservative import EPS, ConservativeScheduler
from repro.sched.depthk import DepthKScheduler
from repro.workload.model import Workload
from repro.workload.transforms import split_by_runtime_limit
from tests.backfill_reference import (
    FullCompressionConservative,
    FullPassDepthK,
    PredictedEnds,
    from_occupations,
)

#: a hair under EPS: completions this close count as simultaneous
TICK = 4e-7

SUBMITS = st.sampled_from([0.0, 10.0, 100.0, 100.0 + TICK]) | st.floats(0.0, 2000.0)
RUNTIMES = st.sampled_from(
    [0.0, 50.0, 100.0, 100.0 + TICK, 100.0 - TICK, 400.0]
) | st.floats(1.0, 1500.0)
WCLS = st.sampled_from(
    [TICK, 50.0, 100.0, 100.0 + TICK, 300.0, 900.0]
) | st.floats(1.0, 1500.0)


@st.composite
def workloads(draw):
    """A small machine, a job batch on it, and maybe its chunk chains."""
    size = draw(st.integers(4, 16))
    rows = draw(st.lists(
        st.tuples(SUBMITS, st.integers(1, size), RUNTIMES, WCLS,
                  st.integers(1, 3)),
        min_size=1, max_size=24,
    ))
    jobs = [
        Job(id=i, submit_time=s, nodes=n, runtime=r, wcl=w, user_id=u)
        for i, (s, n, r, w, u) in enumerate(rows, start=1)
    ]
    wl = Workload(jobs, size, name="backfill-diff")
    limit = draw(st.sampled_from([None, 150.0, 500.0]))
    if limit is not None:
        wl = split_by_runtime_limit(wl, limit)
    return wl


class Recorder:
    """Logs every start and, after every pass, :meth:`state`."""

    def __init__(self, *args, **kw) -> None:
        super().__init__(*args, **kw)
        self.log = []

    def start(self, job, now):
        self.log.append(("start", now, job.id))
        super().start(job, now)

    def schedule(self, now, reason):
        super().schedule(now, reason)
        self.log.append(("pass", now, reason, self.state()))

    def state(self):
        return None


class ConsState(Recorder):
    def state(self):
        return (dict(self.reservations), tuple(self.profile.times),
                tuple(self.profile.avail))


class DepthK(Recorder, DepthKScheduler):
    pass


class DepthKReference(Recorder, FullPassDepthK):
    pass


class Conservative(ConsState, ConservativeScheduler):
    pass


class ConservativeReference(ConsState, FullCompressionConservative):
    pass


def simulate(sched, wl):
    """The run's digest (or the error that stopped it) and its log.

    Conservative backfilling has known crashes at EPS-scale timing
    (pinned in :class:`TestKnownConservativeDefects`); a run that hits
    one must hit it at the same point on both sides.
    """
    jobs = [j.fresh_copy() for j in wl.jobs]
    engine = Engine(Cluster(wl.system_size), sched, jobs, validate=True)
    try:
        outcome = engine.run().digest()
    except (RuntimeError, IndexError) as exc:
        outcome = (type(exc).__name__, str(exc))
    return outcome, sched.log


PRIORITIES = st.sampled_from(["fairshare", "fcfs"])


class TestDepthKFullPass:
    @settings(max_examples=300, deadline=None)
    @given(wl=workloads(), depth=st.sampled_from([0, 1, 2, 4, math.inf]),
           priority=PRIORITIES)
    def test_matches_full_pass(self, wl, depth, priority):
        got = simulate(DepthK(depth=depth, priority=priority), wl)
        want = simulate(DepthKReference(depth=depth, priority=priority), wl)
        assert got == want


def expected_cut(size, now, occupations, order, depth):
    """How many jobs a depth-k pass may leave unplaced, by brute force.

    Replays the full pass and, before each job, asks of every job from
    there on whether it may still start now: it fitted the running jobs
    alone at ``now + EPS`` and its window ``[now + EPS, now + wcl)``
    still has its nodes free on the profile so far.  The pass may stop
    at the first rank where no job may.
    """
    profile = from_occupations(size, now, occupations)
    threshold = now + EPS
    free = profile.available_at(threshold)

    def may_start(job):
        end = now + job.wcl
        return job.nodes <= free and (
            end <= threshold
            or profile.min_available(threshold, end) >= job.nodes
        )

    for rank, job in enumerate(order):
        if not any(may_start(j) for j in order[rank:]):
            return len(order) - rank
        if rank < depth:
            start = profile.earliest_fit(job.nodes, job.wcl, now)
            profile.reserve_fitted(start, start + job.wcl, job.nodes)
        elif profile.min_available(now, now + job.wcl) >= job.nodes:
            profile.reserve_fitted(now, now + job.wcl, job.nodes)
    return 0


class DepthKCut(PredictedEnds, DepthK):
    """Records, per pass, the ``depthk.pass_cut`` count next to
    :func:`expected_cut` on the same queue and running set, with the
    running occupations from the reference's own predicted ends."""

    def schedule(self, now, reason):
        occupations = list(self._occupations(now))
        order = list(self.ordered_queue(now))
        want = expected_cut(self.cluster.size, now, occupations, order,
                            self.depth)
        c = counters.ACTIVE
        before = c.get("depthk.pass_cut")
        super().schedule(now, reason)
        self.log.append(("cut", now, c.get("depthk.pass_cut") - before, want))


class TestDepthKPassCut:
    @settings(max_examples=200, deadline=None)
    @given(wl=workloads(), depth=st.sampled_from([0, 1, 2, 4, math.inf]),
           priority=PRIORITIES)
    def test_pass_stops_after_last_job_that_may_start(self, wl, depth,
                                                      priority):
        """The pass places jobs exactly up to the last one that can
        still start now: no earlier (a job that could start would be
        skipped) and no later (a reservation that ruled out the rest
        went unnoticed)."""
        with counters.collect():
            _, log = simulate(DepthKCut(depth=depth, priority=priority), wl)
        cuts = [entry[2:] for entry in log if entry[0] == "cut"]
        assert all(got == want for got, want in cuts), cuts


class TestConservativeFullCompression:
    @settings(max_examples=300, deadline=None)
    @given(wl=workloads(), priority=PRIORITIES)
    def test_matches_full_compression(self, wl, priority):
        got = simulate(Conservative(priority=priority), wl)
        want = simulate(ConservativeReference(priority=priority), wl)
        assert got == want


def _jobs(rows):
    return [
        Job(id=i, submit_time=s, nodes=n, runtime=r, wcl=w, user_id=1,
            parent_id=p, chunk_index=k, chunk_count=2 if p else 1,
            seniority_time=0.0 if p else None)
        for i, s, n, r, w, p, k in rows
    ]


class TestKnownConservativeDefects:
    """EPS-scale cases the generator above finds in conservative
    backfilling, the same with and without the compression shortcut.
    Each comes from a reservation whose start is due only through the
    ``EPS`` slack; the one still marked xfail still crashes."""

    def test_overrun_within_eps_then_compression(self):
        # job 13 overruns its estimate by 4e-7; at its completion job 16's
        # reservation is due (200.0), so compression must keep it: re-fitted
        # from 200.0000004 its window would reach job 15's reservation at
        # 260.0
        rows = [(i, 0.0, 1, 0.0, 50.0, None, 0) for i in range(1, 11)] + [
            (14, 0.0, 1, 150.0, 60.0, 11, 0),
            (15, 0.0, 1, 1.0, 60.0, 11, 1),
            (16, 0.0, 4, 150.0, 60.0, 12, 0),
            (17, 0.0, 4, 1.0, 60.0, 12, 1),
            (13, 100.0, 1, 100.0 + TICK, 100.0, None, 0),
        ]
        Engine(Cluster(4), ConservativeScheduler(), _jobs(rows),
               validate=True).run()

    @pytest.mark.xfail(raises=RuntimeError, strict=True,
                       reason="two due reservations start in one pass")
    def test_estimate_below_eps(self):
        # jobs 9 and 8 hold back-to-back reservations 4e-7 long; both are
        # due at 100.0000004, and job 9 starting late leaves job 8 short
        rows = [(i, 0.0, 1, 0.0, TICK, None, 0) for i in range(1, 6)] + [
            (6, 0.0, 1, 400.0, TICK, None, 0),
            (7, 0.0, 3, 100.0 + TICK, 100.0, None, 0),
            (9, 0.0, 1, 0.0, TICK, None, 0),
            (8, 10.0, 3, 0.0, TICK, None, 0),
        ]
        Engine(Cluster(4), ConservativeScheduler(), _jobs(rows),
               validate=True).run()

    def test_reservation_ending_at_now(self):
        # job 7's 4e-7 reservation [100.0, 100.0000004) is due when job 6
        # completes at 100.0000004; compression must not release [now, now)
        rows = [(i, 0.0, 1, 0.0, TICK, None, 0) for i in range(1, 5)] + [
            (5, 0.0, 1, 50.0, TICK, None, 0),
            (6, 0.0, 1, 100.0 + TICK, 100.0, None, 0),
            (7, 10.0, 4, 0.0, TICK, None, 0),
        ]
        Engine(Cluster(4), ConservativeScheduler(), _jobs(rows),
               validate=True).run()
