"""Span tracing from outside the program: wrap layer entry points.

Tracing never edits ``src/``.  :func:`install` replaces the public entry
points of each layer (class methods and module functions) with wrappers
that open a span on entry and close it on exit;
:meth:`Installation.undo` puts the originals back.  A span's self time
is its duration minus the time covered by the spans it opened, so the
self times of the spans under a cell add up to the cell's wall time,
less whatever the cell does outside any traced boundary.

Spans are aggregated in memory as they close, keyed by
``(name, parent name, label)``: one record per distinct edge of the call
tree holds the call count, total time and self time.  A full sweep
closes millions of spans, so keeping each one would cost more memory
than the simulation itself; the aggregate keeps every parent/child
relation and every second.  The label is the policy of the enclosing
``api.run`` call (or the server's policy), which is how scheduler and
fairness time is attributed per policy.

The hottest inner calls (``FreeTimeline.place``,
``ReservationProfile.earliest_fit``) are counted through
``repro.obs.counters``, not timed: a wrapper would cost more than the
call.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

# span names, one per layer boundary
ENGINE = "core.engine"
SCHED = "sched"
FAIRNESS = "metrics.fairness"
LOC = "metrics.loc"
DERIVE = "experiments.runner.derive"
SPLIT = "workload.transforms.split"
CELL = "api.run"
CACHE_GET = "campaign.cache.get"
CACHE_PUT = "campaign.cache.put"
PLAN = "artifacts.plan"
RENDER = "artifacts.render"
MANIFEST = "artifacts.manifest"
WORKLOAD = "artifacts.workload"
DRIVE = "service.tenancy.drive"
ADVANCE = "service.session.advance"
SNAPSHOT = "service.session.snapshot"
WHATIF = "service.session.whatif"
FORK = "service.session.whatif_fork"

#: the layers whose self time must cover a policy cell's wall time
CELL_LAYERS = (ENGINE, SCHED, FAIRNESS, LOC, DERIVE, SPLIT)

_clock = time.perf_counter


class Tracer:
    """Aggregated span tree of one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.label = ""
        #: open spans: [name, start, time covered by child spans]
        self._stack: List[list] = []
        #: (name, parent, label) -> [calls, total seconds, self seconds]
        self.edges: Dict[Tuple[str, str, str], List[float]] = defaultdict(
            lambda: [0, 0.0, 0.0]
        )
        #: time of spans opened with no span open (the layer work of a
        #: request, from the server's side)
        self.root_s = 0.0

    def enter(self, name: str) -> None:
        self._stack.append([name, _clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        dur = _clock() - start
        stack = self._stack
        parent = stack[-1][0] if stack else ""
        rec = self.edges[(name, parent, self.label)]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child
        if stack:
            stack[-1][2] += dur
        else:
            self.root_s += dur

    # -- reading ---------------------------------------------------------------

    def self_s(self, name: str, label: str | None = None) -> float:
        return sum(r[2] for (n, _p, lab), r in self.edges.items()
                   if n == name and (label is None or lab == label))

    def total_s(self, name: str, label: str | None = None) -> float:
        """Time inside ``name`` spans, counting a recursive span once."""
        return sum(r[1] for (n, p, lab), r in self.edges.items()
                   if n == name and p != name
                   and (label is None or lab == label))

    def labels(self) -> List[str]:
        return sorted({lab for (_n, _p, lab) in self.edges if lab})

    def merge(self, doc: Dict[str, object]) -> None:
        """Add a dumped tracer (a worker process's spans) into this one."""
        for name, parent, label, calls, total, self_time in doc["edges"]:
            rec = self.edges[(name, parent, label)]
            rec[0] += calls
            rec[1] += total
            rec[2] += self_time
        self.root_s += doc["root_s"]

    def dump(self) -> Dict[str, object]:
        return {
            "root_s": self.root_s,
            "edges": [[n, p, lab, *rec]
                      for (n, p, lab), rec in sorted(self.edges.items())],
        }


def _span(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()
    return wrapper


def _cell_span(tracer: Tracer, fn: Callable) -> Callable:
    """``api.run``: a span that also labels everything below it with the
    request's policy."""
    from repro.api import SimulationRequest

    default = SimulationRequest.policy

    @functools.wraps(fn)
    def wrapper(request=None, **kwargs):
        policy = kwargs.get("policy", getattr(request, "policy", default))
        outer = tracer.label
        tracer.label = policy
        tracer.enter(CELL)
        try:
            return fn(request, **kwargs)
        finally:
            tracer.exit()
            tracer.label = outer
    return wrapper


class Installation:
    """The wrappers one :func:`install` put in place."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def patch(self, owner: object, attr: str, new: object) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def undo(self) -> None:
        for owner, attr, old in reversed(self._saved):
            setattr(owner, attr, old)
        self._saved.clear()


def _scheduler_classes():
    import repro.sched  # noqa: F401  registers every scheduler module
    from repro.sched.base import BaseScheduler

    seen, todo = [], [BaseScheduler]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def install(tracer: Tracer) -> Installation:
    """Wrap every traced layer boundary; returns what :meth:`undo` reverts."""
    from repro import api
    from repro.artifacts import build as art_build
    from repro.artifacts.spec import Artifact
    from repro.campaign.cache import CampaignCache
    from repro.core.engine import Engine
    from repro.experiments import runner
    from repro.metrics.fairness import HybridFSTObserver
    from repro.metrics.loc import LossOfCapacityObserver
    from repro.service import session, tenancy

    inst = Installation()

    def wrap(owner, attr, name):
        inst.patch(owner, attr, _span(tracer, name, owner.__dict__[attr]))

    for attr in ("__init__", "run", "step_until"):
        wrap(Engine, attr, ENGINE)
    for cls in _scheduler_classes():
        for attr in ("schedule", "enqueue", "on_completion", "on_timer"):
            if attr in cls.__dict__:
                wrap(cls, attr, SCHED)
    for attr in ("on_arrival", "on_start", "on_completion", "collect"):
        wrap(HybridFSTObserver, attr, FAIRNESS)
    for attr in ("on_arrival", "on_start", "on_completion", "on_end",
                 "collect"):
        wrap(LossOfCapacityObserver, attr, LOC)
    wrap(runner, "derive_policy_run", DERIVE)
    wrap(runner, "split_by_runtime_limit", SPLIT)
    inst.patch(api, "run", _cell_span(tracer, api.__dict__["run"]))

    wrap(CampaignCache, "get", CACHE_GET)
    wrap(CampaignCache, "put", CACHE_PUT)
    wrap(art_build, "plan_build", PLAN)
    wrap(Artifact, "build_text", RENDER)
    wrap(art_build, "manifest_doc", MANIFEST)
    wrap(art_build.PaperConfig, "build_workload", WORKLOAD)

    wrap(tenancy.TenantMux, "drive", DRIVE)
    wrap(session.LiveSimulation, "advance", ADVANCE)
    wrap(session.LiveSimulation, "snapshot", SNAPSHOT)
    wrap(session.LiveSimulation, "whatif", WHATIF)
    wrap(Engine, "fork", FORK)
    # the session derives through its own imported name
    wrap(session, "derive_policy_run", DERIVE)
    return inst


@contextmanager
def traced(tracer: Tracer):
    """For the block: every wrapper installed and the
    ``repro.obs.counters`` catalog collecting; yields the counters."""
    from repro.obs import counters

    inst = install(tracer)
    try:
        with counters.collect() as counts:
            yield counts
    finally:
        inst.undo()
