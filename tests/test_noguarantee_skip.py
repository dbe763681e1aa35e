"""Differential tests: the CPlant scheduler's idle-pass skip vs full passes.

:class:`~repro.sched.noguarantee.NoGuaranteeScheduler` skips a pass when
nothing that could make a job startable changed since the last pass
(``_idle``).  ``tests/backfill_reference.py`` keeps
:class:`FullPassNoGuarantee`, which runs every pass.  On every workload
both sides must agree exactly: the same digest, the same starts in the
same order at the same instants, and after every pass the same
starvation queue and fairshare usage version (a skipped pass settles the
tracker where a full pass does).  Each skip is also checked by brute
force: at that instant no waiting job passes the pass's own test.

The generated workloads run on 4-16 node machines with short starvation
thresholds and recheck intervals, so they mix starvation promotions,
``.fair`` rechecks of barred users, daily-decay ticks, chunk chains from
the runtime-limit transform and, under ``KillPolicy.IF_NEEDED``, jobs
that overrun their estimate (their expected end passes while they run).
"""

from __future__ import annotations

import pytest

from hypothesis import HealthCheck, Phase, find, given, settings
from hypothesis import strategies as st

from repro.core.cluster import Cluster
from repro.core.engine import Engine, KillPolicy
from repro.core.job import Job
from repro.obs import counters
from repro.sched.noguarantee import NoGuaranteeScheduler
from repro.workload.model import Workload
from repro.workload.transforms import split_by_runtime_limit
from tests.backfill_reference import FullPassNoGuarantee

#: a hair under the conservative EPS, as in the reservation differentials
TICK = 4e-7

SUBMITS = st.sampled_from([0.0, 10.0, 100.0, 100.0 + TICK]) | st.floats(0.0, 3000.0)
RUNTIMES = st.sampled_from(
    [0.0, 50.0, 100.0, 100.0 + TICK, 400.0, 1200.0]
) | st.floats(1.0, 1500.0)
WCLS = st.sampled_from(
    [TICK, 50.0, 100.0, 300.0, 900.0]
) | st.floats(1.0, 1500.0)


@st.composite
def cases(draw):
    """A small machine and job batch (maybe chunked), scheduler knobs and
    the engine's kill policy."""
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
    wl = Workload(jobs, size, name="cplant-skip-diff")
    limit = draw(st.sampled_from([None, 150.0, 500.0]))
    if limit is not None:
        wl = split_by_runtime_limit(wl, limit)
    knobs = dict(
        starvation_threshold=draw(st.sampled_from([50.0, 200.0, 800.0])),
        entrance=draw(st.sampled_from(["all", "fair"])),
        heavy_factor=draw(st.sampled_from([0.5, 1.0])),
        recheck_interval=draw(st.sampled_from([25.0, 100.0])),
        decay_interval=draw(st.sampled_from([300.0, 86_400.0])),
    )
    engine = dict(
        kill_policy=draw(st.sampled_from(list(KillPolicy))),
        wcl_check_interval=draw(st.sampled_from([60.0, 900.0])),
    )
    return wl, knobs, engine


def startable(sched, now):
    """Every waiting job a full pass at ``now`` could start first: the
    pass's own test, applied to the whole queue."""
    free = sched.cluster.free_nodes
    starv = sched.starvation_queue
    if not starv:
        return [j for j in sched.queue if j.nodes <= free]
    head = starv[0]
    if head.nodes <= free:
        return [head]
    shadow, free_then = sched.cluster.expected_ends.shadow(head.nodes, now)
    extra = free_then - head.nodes
    return [
        j for j in starv[1:] + sched.queue
        if j.nodes <= free and (now + j.wcl <= shadow or j.nodes <= extra)
    ]


class Recorder:
    """Logs every start and, after every pass, the starvation queue and
    the fairshare usage version."""

    def __init__(self, *args, **kw) -> None:
        super().__init__(*args, **kw)
        self.log = []

    def attach(self, engine):
        super().attach(engine)
        self.kill_policy = engine.kill_policy

    def start(self, job, now):
        self.log.append(("start", now, job.id))
        super().start(job, now)

    def schedule(self, now, reason):
        super().schedule(now, reason)
        self.log.append(("pass", now, reason,
                         tuple(j.id for j in self.starvation_queue),
                         self.tracker.usage_version))


class Skipping(Recorder, NoGuaranteeScheduler):
    """The production scheduler; checks each skip by brute force and
    notes the situations skips happened in."""

    def __init__(self, *args, **kw) -> None:
        super().__init__(*args, **kw)
        self.situations = set()
        self._reason = None

    def schedule(self, now, reason):
        self._reason = reason
        super().schedule(now, reason)

    def _idle(self, now):
        idle = super()._idle(now)
        if idle:
            assert not startable(self, now), (now, startable(self, now))
            running = list(self.cluster.running_jobs())
            if self.starvation_queue:
                self.situations.add("starvation head")
            if (self.kill_policy is KillPolicy.IF_NEEDED
                    and any(j.start_time + j.wcl < now for j in running)):
                self.situations.add("IF_NEEDED overrun")
            if self._reason == "timer" and self.entrance == "fair":
                self.situations.add("recheck")
            if any(j.is_chunk for j in running + self.queue):
                self.situations.add("chunk chain")
        return idle


class Reference(Recorder, FullPassNoGuarantee):
    pass


def simulate(sched, case):
    """The run's digest and its log (starts and passes)."""
    wl, _, engine_kw = case
    jobs = [j.fresh_copy() for j in wl.jobs]
    engine = Engine(Cluster(wl.system_size), sched, jobs, validate=True,
                    **engine_kw)
    return engine.run().digest(), sched.log


class TestIdlePassSkip:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=cases())
    def test_matches_full_pass(self, case):
        knobs = case[1]
        assert simulate(Skipping(**knobs), case) == simulate(
            Reference(**knobs), case)

    @pytest.mark.parametrize("situation", [
        "starvation head", "IF_NEEDED overrun", "recheck", "chunk chain",
    ])
    def test_cases_skip_in(self, situation):
        """The generator reaches skipped passes in each situation the
        skip rule must handle, and those cases match the full pass."""

        def skips_in(case):
            sched = Skipping(**case[1])
            simulate(sched, case)
            return situation in sched.situations

        case = find(cases(), skips_in, settings=settings(
            max_examples=3000, database=None, derandomize=True,
            phases=[Phase.generate],
            suppress_health_check=[HealthCheck.too_slow]))
        knobs = case[1]
        assert simulate(Skipping(**knobs), case) == simulate(
            Reference(**knobs), case)

    def test_head_shadow_at_now_runs_the_pass(self):
        """Job 1 overruns its 0.5 s estimate, so the blocked starvation
        head (job 2) has its shadow at ``now``.  Job 3's estimate is so
        small that ``1.0 + wcl > 1.0`` but ``2.0 + wcl == 2.0``: it may
        not backfill at 1.0 and may at 2.0, when job 4's arrival runs a
        pass with nothing else changed."""
        jobs = [
            Job(id=1, submit_time=0.0, nodes=3, runtime=100.0, wcl=0.5,
                user_id=1),
            Job(id=2, submit_time=0.0, nodes=4, runtime=1.0, wcl=1.0,
                user_id=1),
            Job(id=3, submit_time=1.0, nodes=1, runtime=1.0, wcl=1.5e-16,
                user_id=1),
            Job(id=4, submit_time=2.0, nodes=4, runtime=1.0, wcl=1.0,
                user_id=1),
        ]
        case = (Workload(jobs, 4, name="shadow-at-now"),
                dict(starvation_threshold=0.25), {})
        got = simulate(Skipping(**case[1]), case)
        assert ("start", 2.0, 3) in got[1]
        assert got == simulate(Reference(**case[1]), case)

    def test_paper_trace_skips_and_keeps_digests(self, monkeypatch):
        """On a small CPlant trace every CPlant variant skips passes and
        keeps its full-pass digest and pass count."""
        from repro import api
        from repro.workload.generator import (
            GeneratorConfig,
            generate_cplant_workload,
        )

        wl = generate_cplant_workload(GeneratorConfig(scale=0.03), seed=7)
        keys = ("cplant24.nomax.all", "cplant24.nomax.fair",
                "cplant72.72max.fair")
        runs = {}
        for key in keys:
            with counters.collect() as c:
                runs[key] = (api.run(policy=key, workload=wl).digest(), c)
        monkeypatch.setattr(NoGuaranteeScheduler, "_idle",
                            lambda self, now: False)
        for key in keys:
            with counters.collect() as ref:
                want = api.run(policy=key, workload=wl).digest()
            got, c = runs[key]
            assert got == want, key
            assert (c.get("engine.schedule_pass")
                    == ref.get("engine.schedule_pass"))
            assert c.get("sched.pass_skipped") > 0, key
            assert ref.get("sched.pass_skipped") == 0
