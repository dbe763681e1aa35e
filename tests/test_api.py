"""The repro.api facade: one request model for every entry path.

The contract under test: a :class:`SimulationRequest` fully determines a
simulation; :func:`api.run` returns the :class:`PolicyRun` the
engine-level runner path produces; and options validate in one place (the
:class:`RunOptions` constructor, which :meth:`RunOptions.from_mapping`
calls) with structured errors.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api
from repro.core.engine import Engine, KillPolicy, Observer
from repro.experiments.runner import PolicyRun, RunOptions, run_policy


# -- SimulationRequest ---------------------------------------------------------


def test_request_rejects_multiple_workload_sources(small_workload):
    with pytest.raises(ValueError, match="at most one workload source"):
        api.SimulationRequest(workload=small_workload, scenario="baseline")


def test_request_params_require_a_scenario():
    with pytest.raises(ValueError, match="scenario"):
        api.SimulationRequest(params=(("load", 1.5),))


def test_request_resolves_explicit_workload(small_workload):
    req = api.SimulationRequest(workload=small_workload)
    assert req.resolve_workload() is small_workload


def test_request_default_source_is_calibrated_generator():
    wl = api.SimulationRequest(scale=0.01, seed=3).resolve_workload()
    wl2 = api.SimulationRequest(scale=0.01, seed=3).resolve_workload()
    assert [j.id for j in wl.jobs] == [j.id for j in wl2.jobs]
    assert wl.system_size == 1024  # the calibrated CPlant machine


def test_request_options_mapping_merges_over_scenario_defaults():
    # the baseline scenario carries no option defaults, so the mapping wins
    req = api.SimulationRequest(
        scenario="cplant-baseline", options={"epsilon": 5.0}
    )
    opts = req.resolve_options()
    assert isinstance(opts, RunOptions)
    assert opts.epsilon == 5.0


def test_request_options_runoptions_used_verbatim(small_workload):
    opts = RunOptions(kill_policy=KillPolicy.NEVER)
    req = api.SimulationRequest(workload=small_workload, options=opts)
    assert req.resolve_options() is opts


def test_request_options_bad_type_is_a_value_error(small_workload):
    req = api.SimulationRequest(workload=small_workload, options=3.14)
    with pytest.raises(ValueError, match="RunOptions"):
        req.resolve_options()


# -- run ---------------------------------------------------------------------


def test_run_matches_direct_runner(small_workload):
    run = api.run(policy="easy.fairshare", workload=small_workload)
    direct = run_policy(small_workload, "easy.fairshare")
    assert isinstance(run, PolicyRun)
    assert run.digest() == direct.result.digest()
    assert run.summary == direct.summary
    assert run.percent_unfair == direct.fairness.percent_unfair


def test_run_refines_an_existing_request(small_workload):
    base = api.SimulationRequest(policy="fcfs.nobackfill", workload=small_workload)
    run = api.run(base, policy="easy.fairshare")
    assert run.policy == "easy.fairshare"
    assert run.digest() == api.run(
        policy="easy.fairshare", workload=small_workload).digest()


def test_run_report_renders_the_standard_block(small_workload):
    run = api.run(policy="easy.fairshare", workload=small_workload)
    text = run.report()
    assert "policy: easy.fairshare" in text
    assert "avg turnaround (Eq.1)" in text
    assert "loss of capacity(Eq.4)" in text


def test_compare_runs_every_policy_on_one_workload(small_workload):
    out = api.compare(
        ["easy.fairshare", "fcfs.nobackfill"], workload=small_workload
    )
    assert set(out) == {"easy.fairshare", "fcfs.nobackfill"}
    solo = api.run(policy="fcfs.nobackfill", workload=small_workload)
    assert out["fcfs.nobackfill"].digest() == solo.digest()


def test_compare_needs_at_least_one_policy():
    with pytest.raises(ValueError, match="at least one policy"):
        api.compare([])


def test_compare_checks_policies_before_the_workload(monkeypatch):
    def no_workload(self):
        raise AssertionError("workload resolved before policy check")

    monkeypatch.setattr(api.SimulationRequest, "resolve_workload", no_workload)
    with pytest.raises(KeyError, match="unknown policy 'nope'"):
        api.compare(["easy.fcfs", "nope"], scale=0.02)


def test_catalogs_list_scenarios_and_policies():
    assert any(sc.name == "cplant-baseline" for sc in api.list_scenarios())
    assert "easy.fairshare" in api.list_policies()


# -- RunOptions.from_mapping: the one option-parsing path ----------------------


def test_from_mapping_accepts_canonical_keys():
    opts = RunOptions.from_mapping(
        {"estimate_mode": "wcl", "epsilon": 2, "kill_policy": "never",
         "scheduler_overrides": {"starvation_threshold": 60.0},
         "validate": True}
    )
    assert opts.estimate_mode == "wcl"
    assert opts.epsilon == 2.0
    assert opts.kill_policy is KillPolicy.NEVER
    assert opts.scheduler_overrides == (("starvation_threshold", 60.0),)
    assert opts.validate is True


def test_from_mapping_names_unknown_keys():
    with pytest.raises(ValueError, match="epsilom"):
        RunOptions.from_mapping({"epsilom": 2.0})


def test_from_mapping_rejects_bad_estimate_mode():
    with pytest.raises(ValueError, match="estimate_mode"):
        RunOptions.from_mapping({"estimate_mode": "psychic"})


def test_from_mapping_rejects_bad_kill_policy():
    with pytest.raises(ValueError, match="kill_policy"):
        RunOptions.from_mapping({"kill_policy": "sometimes"})


def test_from_mapping_rejects_the_overrides_alias():
    with pytest.raises(ValueError, match=r"unknown run-option keys \['overrides'\]"):
        RunOptions.from_mapping({"overrides": {"a": 1}})


def test_from_mapping_rejects_unknown_reference_order():
    with pytest.raises(ValueError,
                       match="reference_orders: unknown reference order.*vibes"):
        RunOptions.from_mapping({"reference_orders": ["fairshare", "vibes"]})


@pytest.mark.parametrize(
    "epsilon", [float("nan"), "nan", float("inf"), float("-inf"), -1.0])
def test_epsilon_must_be_finite_and_non_negative(epsilon):
    """A NaN threshold counted no job as unfair (``miss > nan`` is always
    false); a negative one counted every job."""
    with pytest.raises(ValueError, match="epsilon must be finite"):
        RunOptions(epsilon=epsilon)
    with pytest.raises(ValueError, match="epsilon must be finite"):
        RunOptions.from_mapping({"epsilon": epsilon})


def test_epsilon_zero_is_legal():
    assert RunOptions(epsilon=0).epsilon == 0.0


def test_from_mapping_pins_fairshare_first():
    opts = RunOptions.from_mapping({"reference_orders": ["fcfs"]})
    assert opts.reference_orders[0] == "fairshare"
    assert "fcfs" in opts.reference_orders


# -- RunOptions(...) and RunOptions.from_mapping agree ------------------------

#: field -> (a good loosely-typed value, a bad value)
OPTION_CASES = {
    "estimate_mode": ("wcl", "psychic"),
    "epsilon": (2, "lots"),
    "kill_policy": ("never", "sometimes"),
    "scheduler_overrides": ({"starvation_threshold": 60.0}, {1: 2}),
    "validate": (True, "yes"),
    "reference_orders": (["fcfs"], ["vibes"]),
}


def test_option_cases_cover_every_field():
    import dataclasses

    assert set(OPTION_CASES) == {f.name for f in dataclasses.fields(RunOptions)}


@pytest.mark.parametrize("key", sorted(OPTION_CASES))
def test_construction_paths_agree(key):
    good = OPTION_CASES[key][0]
    direct = RunOptions(**{key: good})
    parsed = RunOptions.from_mapping({key: good})
    assert direct == parsed
    assert hash(direct) == hash(parsed)
    # the cache key hashes the identity's JSON, where 2 and 2.0 differ
    assert json.dumps(direct.identity(), sort_keys=True) == json.dumps(
        parsed.identity(), sort_keys=True
    )


@pytest.mark.parametrize("key", sorted(OPTION_CASES))
def test_construction_paths_reject_alike(key):
    bad = OPTION_CASES[key][1]
    with pytest.raises(ValueError, match=key) as direct:
        RunOptions(**{key: bad})
    with pytest.raises(ValueError, match=key) as parsed:
        RunOptions.from_mapping({key: bad})
    assert str(direct.value) == str(parsed.value)


@pytest.mark.parametrize("key", ["estimate_mode", "reference_orders"])
def test_construction_paths_run_alike(key, small_workload):
    good = OPTION_CASES[key][0]
    runs = [
        api.run(policy="fcfs.nobackfill", workload=small_workload, options=o)
        for o in (RunOptions(**{key: good}), {key: good})
    ]
    keys = [sorted(r.fairness_by_order or ()) for r in runs]
    assert keys[0] == keys[1]
    assert runs[0].digest() == runs[1].digest()


# -- Observer protocol ---------------------------------------------------------


class _FullObserver:
    """Structurally satisfies the Observer protocol without inheriting."""

    def on_attach(self, engine): ...
    def on_arrival(self, job, now): ...
    def on_start(self, job, now): ...
    def on_completion(self, job, now): ...
    def on_end(self, now): ...
    def collect(self, result): ...
    def on_schedule_pass(self, now, reason, queue_depth, running,
                         free_nodes, started): ...
    def on_kill(self, job, now): ...
    def on_chunk_chain(self, job, successor, now): ...


def test_observer_protocol_is_structural():
    assert isinstance(_FullObserver(), Observer)
    assert not isinstance(object(), Observer)


def test_engine_rejects_non_observers(small_workload):
    from repro.core.cluster import Cluster
    from repro.sched.registry import get_policy

    class HalfObserver:
        def on_arrival(self, job, now): ...

    sched = get_policy("fcfs.nobackfill").make_scheduler()
    with pytest.raises(TypeError, match="on_attach"):
        Engine(Cluster(small_workload.system_size), sched,
               small_workload.jobs, observers=[HalfObserver()])


def test_structural_observer_runs(small_workload):
    observed = api.run(policy="fcfs.nobackfill", workload=small_workload,
                       observers=(_FullObserver(),))
    bare = api.run(policy="fcfs.nobackfill", workload=small_workload)
    assert observed.digest() == bare.digest()


# -- import weight ---------------------------------------------------------------


def test_import_api_leaves_the_heavy_subsystems_unloaded():
    """A fresh ``import repro.api`` loads no artifact-pipeline, service or
    trace module; those import only when their entry point is called."""
    prog = (
        "import sys\n"
        "import repro.api\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(Path(__file__).resolve().parents[1] / "src")
                         + os.pathsep + env.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", prog], env=env,
                          capture_output=True, text=True, check=True)
    loaded = proc.stdout.split()
    assert "repro.api" in loaded
    heavy = [m for m in loaded
             if m.split(".")[:2] in (["repro", "artifacts"],
                                     ["repro", "service"])
             or m == "repro.obs.trace"]
    assert heavy == []
