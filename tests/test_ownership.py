"""One-way ownership in a simulation.

The engine owns its scheduler and observers, and nothing points back:
schedulers, their orders and the metric observers keep only what they
read.  So a finished run is freed by reference counting alone, and a
fork's orders read the fork's own state, because ``copy.deepcopy``
copies the arguments a ``functools.partial`` binds.
"""

from __future__ import annotations

import gc
import importlib.util
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro import api
from repro.core.cluster import Cluster
from repro.core.engine import Engine, KillPolicy, Observer
from repro.core.job import Job
from repro.metrics.fairness import HybridFSTObserver
from repro.sched.base import BaseScheduler
from repro.sched.registry import get_policy, policy_names
from repro.workload.generator import GeneratorConfig, generate_cplant_workload
from repro.workload.transforms import split_by_runtime_limit


@pytest.fixture(scope="module")
def trace():
    return generate_cplant_workload(GeneratorConfig(scale=0.05), seed=7)


# -- forks ---------------------------------------------------------------------


def chained_engine(trace, policy):
    """A direct engine over the trace split into chunk chains."""
    wl = split_by_runtime_limit(trace, 12 * 3600.0)
    assert any(j.is_chunk for j in wl.jobs)
    return Engine(
        Cluster(wl.system_size), get_policy(policy).make_scheduler(), wl.jobs,
        observers=[HybridFSTObserver()], kill_policy=KillPolicy.IF_NEEDED,
    )


def order_state(engine):
    """The per-run state the scheduler's order is bound to."""
    sched = engine.scheduler
    if sched.priority == "fairshare":
        return (sched.tracker, sched.lanes)
    if sched.priority == "srpt":
        return (engine.tail_wcl,)
    return (sched.vfs,)


@pytest.mark.parametrize("policy", ["easy.fairshare", "fsp.easy", "easy.srpt"])
def test_fork_orders_read_the_forks_own_state(trace, policy):
    one_shot = chained_engine(trace, policy).run().digest()
    engine = chained_engine(trace, policy)
    # fork mid-trace, at the first instant with jobs waiting
    engine.step_until(engine.jobs[len(engine.jobs) // 2].submit_time)
    while not engine.scheduler.queue:
        engine.step_until(engine.events.peek().time)
    fork = engine.fork()

    args = fork.scheduler.ordering.args
    assert len(args) == len(order_state(fork))
    for arg, own, parents in zip(args, order_state(fork), order_state(engine)):
        assert arg is own
        assert arg is not parents
    assert fork.observers[0].tracker is fork.scheduler.tracker

    assert fork.finish().digest() == one_shot
    assert engine.finish().digest() == one_shot


# -- self-freeing runs ---------------------------------------------------------


def _is_simulation_object(obj) -> bool:
    return isinstance(obj, (Engine, BaseScheduler, Job, Observer))


@contextmanager
def cyclic_garbage():
    """Yields a list that, after the block, holds what a full collection
    finds unreachable among the block's objects, filtered to engines,
    schedulers, jobs and observers.  Automatic collection is off inside
    the block, so nothing is freed behind the check's back."""
    found = []
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield found
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
    finally:
        gc.set_debug(0)
        found.extend(o for o in gc.garbage if _is_simulation_object(o))
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("policy", policy_names())
def test_a_finished_run_frees_itself(trace, policy):
    with cyclic_garbage() as found:
        run = api.run(policy=policy, workload=trace)
        assert run.result.jobs
        del run
    assert not found, sorted({type(o).__name__ for o in found})


def test_a_whatif_session_frees_itself(trace):
    with cyclic_garbage() as found:
        live = api.open_session(policy="cplant24.nomax.all", workload=trace)
        live.advance(150000.0)
        w = live.whatif({"starvation_threshold": 600.0})
        assert w["baseline"]["events_simulated"] > 0
        live.finish()
        del live
    assert not found, sorted({type(o).__name__ for o in found})


# -- the docs checks -----------------------------------------------------------


def _check_docs():
    path = Path(__file__).resolve().parent.parent / "tools" / "check_docs.py"
    spec = importlib.util.spec_from_file_location("check_docs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_state_the_ownership_contract():
    """Same check CI runs via tools/check_docs.py; a doc naming a deleted
    engine service, or an observer paragraph missing a hook, is
    reported."""
    check_docs = _check_docs()
    assert check_docs.check_engine_docs() == []
    assert check_docs.deleted_service_mentions(
        "call `self.engine.start_job(job)` and `engine.chain_tail_wcl`"
    ) == ["start_job", "chain_tail_"]
    arch = (Path(check_docs.ROOT) / "docs" / "ARCHITECTURE.md").read_text()
    assert check_docs.missing_observer_hooks(arch) == []
    assert check_docs.missing_observer_hooks(
        arch.replace("`on_kill`", "kills")) == ["on_kill"]
