"""Differential test: FSP's vectorised fluid machine vs a plain-dict one.

``VirtualFairShare`` keeps live jobs in numpy slot arrays and drains every
breakpoint with vector operations.  The reference below is the scalar
per-job loop the machine was specified by: dicts in arrival order, one
Python ``min`` per job per breakpoint.  It shares no code with
``repro.sched.sizebased``.  Both are driven through the same random
``add``/``settle``/``rank``/``deepcopy`` sequences, and every rank tuple,
virtual completion time, version and hot-path counter must be *equal* —
no tolerance, because FSP ranks feed recorded digests.
"""

from __future__ import annotations

import copy
from typing import NamedTuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import counters
from repro.sched.queues import fcfs_order
from repro.sched.sizebased import VirtualFairShare


class J(NamedTuple):
    """The job fields the fluid machine reads.  ``Job`` rejects ``wcl=0``;
    this stand-in lets the 1e-9 work floor be driven directly."""

    id: int
    submit_time: float
    nodes: int
    wcl: float


class ReferenceFluid:
    """Equal-share fluid machine, one scalar loop per breakpoint."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.version = 0
        self.vt = 0.0
        self.remaining = {}
        self.widths = {}
        self.vcomp = {}
        self.breakpoints = 0
        self.completions = 0

    def add(self, job, now: float) -> None:
        self.settle(now)
        self.remaining[job.id] = job.nodes * max(job.wcl, 1e-9)
        self.widths[job.id] = job.nodes
        self.version += 1

    def settle(self, now: float) -> None:
        if now <= self.vt:
            return
        advanced = False
        while self.remaining and self.vt < now:
            fair = self.size / len(self.remaining)
            dt = now - self.vt
            for jid, rem in self.remaining.items():
                t = rem / min(self.widths[jid], fair)
                if t < dt:
                    dt = t
            done = []
            for jid in self.remaining:
                self.remaining[jid] -= min(self.widths[jid], fair) * dt
                if self.remaining[jid] <= 1e-9:
                    done.append(jid)
            self.vt += dt
            for jid in done:
                del self.remaining[jid]
                del self.widths[jid]
                self.vcomp[jid] = self.vt
            advanced = True
            self.breakpoints += 1
            self.completions += len(done)
        self.vt = now
        if advanced:
            self.version += 1

    def rank(self, job):
        rem = self.remaining.get(job.id)
        if rem is None:
            vc = self.vcomp.get(job.id, self.vt)
        else:
            vc = self.vt + rem / min(self.widths[job.id],
                                     self.size / len(self.remaining))
        return (vc, job.submit_time, job.id)


SIZE = 16

#: wall-clock limits: the 0 / subnormal floor, exact and awkward values
WCLS = st.one_of(
    st.sampled_from([0.0, 1e-12, 1e-9, 0.1, 1.0, 3.0, 7.0, 100.0]),
    st.floats(min_value=1e-3, max_value=5000.0),
)

#: one op: an arrival (dt, nodes, wcl, twins), a bare settle (dt), or a
#: deepcopy fork; every job's rank is probed after each op.  ``dt = 0``
#: makes simultaneous events; ``twins > 1`` admits identical jobs
#: together, which then virtually complete at one breakpoint.
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"),
                  st.sampled_from([0.0, 0.5, 1.0, 3.0]) | st.floats(0.0, 500.0),
                  st.integers(1, SIZE + 4), WCLS, st.integers(1, 3)),
        st.tuples(st.just("settle"),
                  st.sampled_from([0.0, 5e-324, 1e-9, 1.0])
                  | st.floats(0.0, 2000.0)),
        st.tuples(st.just("fork")),
    ),
    min_size=1, max_size=60,
)


def assert_same(ref: ReferenceFluid, vfs: VirtualFairShare, jobs, what: str):
    assert vfs.version == ref.version, what
    assert vfs._vcomp == ref.vcomp, what
    for job in jobs:
        assert vfs.rank(job) == ref.rank(job), (what, job)
    # the scheduler's order: FCFS, then stably by projected completion
    order = fcfs_order(jobs, 0.0)
    order.sort(key=vfs.projection())
    assert order == sorted(jobs, key=ref.rank), what


def drive(ops, size=SIZE):
    pairs = [(ReferenceFluid(size), VirtualFairShare(size))]
    jobs = []
    now = 0.0
    with counters.collect() as c:
        for step, op in enumerate(ops):
            what = f"op {step}: {op}"
            if op[0] == "add":
                _, dt, nodes, wcl, twins = op
                now += dt
                for _ in range(twins):
                    job = J(len(jobs) + 1, now, nodes, wcl)
                    jobs.append(job)
                    for ref, vfs in pairs:
                        ref.add(job, now)
                        vfs.add(job, now)
            elif op[0] == "settle":
                now += op[1]
                for ref, vfs in pairs:
                    ref.settle(now)
                    vfs.settle(now)
            elif op[0] == "fork":
                # what Engine.fork does: both copies run on, independently
                ref, vfs = pairs[-1]
                twin = copy.deepcopy(ref)
                twin.breakpoints = twin.completions = 0  # counted from here
                pairs.append((twin, copy.deepcopy(vfs)))
            for ref, vfs in pairs:
                assert_same(ref, vfs, jobs, what)
    counts = c.as_dict()
    assert counts.get("fsp.settle", 0) == sum(r.breakpoints for r, _ in pairs)
    assert counts.get("fsp.virtual_complete", 0) == sum(
        r.completions for r, _ in pairs)
    return pairs


@settings(max_examples=300, deadline=None)
@given(OPS)
def test_vectorised_fluid_machine_matches_reference(ops):
    drive(ops)


@settings(max_examples=100, deadline=None)
@given(OPS, st.integers(1, 64))
def test_matches_reference_at_any_machine_size(ops, size):
    drive(ops, size)


def test_identical_jobs_complete_at_one_breakpoint():
    ops = [("add", 0.0, 4, 10.0, 3), ("settle", 1000.0)]
    (ref, vfs), = drive(ops)
    assert len(set(vfs._vcomp.values())) == 1 and len(vfs._vcomp) == 3
    assert ref.breakpoints == 1  # the idle tail after it is no breakpoint


def test_zero_wcl_drains_on_the_floor():
    ops = [("add", 0.0, 2, 0.0, 1), ("add", 0.0, 1, 5.0, 1),
           ("settle", 1e-9), ("settle", 10.0)]
    (_, vfs), = drive(ops)
    assert vfs._vcomp[1] < vfs._vcomp[2]


def test_work_left_exactly_at_the_floor_completes():
    # 1e-9 node-seconds minus a subnormal step rounds back to 1e-9: the
    # job is done because the floor test is ``<=``, not ``<``
    ops = [("add", 0.0, 1, 1e-9, 1), ("settle", 5e-324)]
    (_, vfs), = drive(ops)
    assert vfs._vcomp == {1: 5e-324}


def test_freed_slots_are_reused_without_leaking_work():
    # waves of short jobs: each wave drains before the next arrives, so
    # every arrival after the first wave lands in a recycled slot
    ops = []
    for _ in range(6):
        ops.append(("add", 50.0, 3, 2.0, 4))
        ops.append(("settle", 20.0))
    (ref, vfs), = drive(ops)
    assert len(vfs._vcomp) == 24 and not ref.remaining
    assert len(vfs._ids) == 4  # four slots served all 24 jobs


def test_deepcopy_mid_run_is_independent():
    ops = [("add", 0.0, 8, 30.0, 2), ("settle", 5.0), ("fork",),
           ("add", 1.0, 16, 4.0, 1), ("settle", 100.0)]
    pairs = drive(ops)
    (_, original), (_, forked) = pairs
    # both ran the ops after the fork; they must agree with each other too
    assert original._vcomp == forked._vcomp
    assert original._rem is not forked._rem
