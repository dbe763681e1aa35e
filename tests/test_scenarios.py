"""Scenario library: registry, recipes, determinism, campaign and docs
integration."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.campaign import CampaignSpec, cell_key, run_campaign
from repro.experiments.runner import PolicyRun
from repro.scenarios import (
    Param,
    Scenario,
    TransformStep,
    all_scenarios,
    get_scenario,
    scenario_names,
)
from repro.workload.transforms import flash_crowds, remap_runtime_tail

REPO_ROOT = Path(__file__).resolve().parent.parent

#: small builds for tests: every cplant-based scenario at 2% scale
SMALL = {"scale": 0.02}
SMALL_BY_NAME = {"wide-jobs": {"n_jobs": 80}}


def small_params(name: str) -> dict:
    return dict(SMALL_BY_NAME.get(name, SMALL))


# -- registry -----------------------------------------------------------------

class TestRegistry:
    def test_library_ships_at_least_eight_scenarios(self):
        assert len(scenario_names()) >= 8

    def test_names_are_kebab_case_and_sorted(self):
        names = scenario_names()
        assert list(names) == sorted(names)
        for name in names:
            assert name == name.lower()
            assert " " not in name

    def test_unknown_name_fails_fast_with_known_names(self):
        with pytest.raises(KeyError, match="unknown scenario 'nope'"):
            get_scenario("nope")
        with pytest.raises(KeyError, match="cplant-baseline"):
            get_scenario("nope")

    def test_axes_cover_the_paper_and_related_work(self):
        axes = {sc.axis for sc in all_scenarios()}
        for needed in ("runtime-tail weight", "estimate quality",
                       "arrival burstiness", "user skew", "packing pressure"):
            assert needed in axes

    def test_duplicate_registration_rejected(self):
        from repro.scenarios import register

        with pytest.raises(ValueError, match="already registered"):
            register(get_scenario("cplant-baseline"))

    def test_bad_recipe_pieces_rejected_at_definition(self):
        with pytest.raises(ValueError, match="unknown base"):
            Scenario(name="x", axis="a", summary="s", motivation="m",
                     base="swf")
        with pytest.raises(ValueError, match="unknown transform"):
            Scenario(name="x", axis="a", summary="s", motivation="m",
                     transforms=(TransformStep("frobnicate"),))


# -- parameters ---------------------------------------------------------------

class TestParams:
    def test_unknown_param_fails_fast(self):
        with pytest.raises(ValueError, match="no parameter"):
            get_scenario("heavy-tail-runtimes").build(seed=1, bogus=2)

    def test_override_changes_the_workload(self):
        a = get_scenario("heavy-tail-runtimes").build(seed=1, **SMALL)
        b = get_scenario("heavy-tail-runtimes").build(seed=1, alpha=2.5, **SMALL)
        assert a.content_digest() != b.content_digest()

    def test_explicit_default_equals_omitted_default(self):
        sc = get_scenario("heavy-tail-runtimes")
        default_alpha = sc.param_defaults()["alpha"]
        a = sc.build(seed=1, **SMALL)
        b = sc.build(seed=1, alpha=default_alpha, **SMALL)
        assert a.content_digest() == b.content_digest()

    def test_param_scale_converts_units(self):
        p = Param("limit_hours", scale=3600.0)
        assert p.resolve({"limit_hours": 2.0}) == 7200.0


# -- builds -------------------------------------------------------------------

class TestBuilds:
    @pytest.mark.parametrize("name", scenario_names())
    def test_every_scenario_builds_a_nonempty_workload(self, name):
        wl = get_scenario(name).build(seed=3, **small_params(name))
        assert len(wl) > 0
        assert wl.metadata["scenario"] == name
        assert wl.metadata["scenario_seed"] == 3
        assert wl.name.startswith(f"scenario:{name}(")

    def test_runtime_limit_chunking_splits_long_jobs(self):
        wl = get_scenario("runtime-limit-chunking").build(seed=3, **SMALL)
        assert any(j.is_chunk for j in wl.jobs)
        assert all(j.runtime <= 72 * 3600 + 1e-6 for j in wl.jobs)

    def test_uniform_users_flattens_the_user_distribution(self):
        zipf = get_scenario("zipf-extreme").build(seed=3, **SMALL)
        flat = get_scenario("uniform-users").build(seed=3, **SMALL)
        top_share = lambda wl: (
            np.bincount(wl.users()).max() / len(wl))  # noqa: E731
        assert top_share(zipf) > 2 * top_share(flat)

    def test_narrow_cluster_shrinks_the_machine(self):
        wl = get_scenario("narrow-cluster").build(seed=3, nodes=256, **SMALL)
        assert wl.system_size == 256
        assert all(j.nodes <= 256 for j in wl.jobs)


# -- determinism (mirrors the campaign cache-key contract) --------------------

class TestDeterminism:
    @pytest.mark.parametrize("name", scenario_names())
    def test_same_seed_same_digest(self, name):
        params = small_params(name)
        a = get_scenario(name).build(seed=5, **params)
        b = get_scenario(name).build(seed=5, **params)
        assert a.content_digest() == b.content_digest()

    @pytest.mark.parametrize("name", scenario_names())
    def test_different_seed_different_digest(self, name):
        params = small_params(name)
        a = get_scenario(name).build(seed=5, **params)
        b = get_scenario(name).build(seed=6, **params)
        assert a.content_digest() != b.content_digest()

    def test_digests_stable_across_processes(self):
        """Same recipe + seed must hash identically in a fresh interpreter
        (the property campaign cache keys rely on)."""
        names = list(scenario_names())
        here = {
            name: get_scenario(name).build(seed=11, **small_params(name)).content_digest()
            for name in names
        }
        prog = (
            "import json, sys\n"
            "from repro.scenarios import get_scenario, scenario_names\n"
            f"by_name = {SMALL_BY_NAME!r}\n"
            f"small = {SMALL!r}\n"
            "out = {n: get_scenario(n).build(seed=11, **by_name.get(n, small))"
            ".content_digest() for n in scenario_names()}\n"
            "print(json.dumps(out))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        )
        proc = subprocess.run(
            [sys.executable, "-c", prog], env=env, capture_output=True,
            text=True, check=True,
        )
        there = json.loads(proc.stdout)
        assert there == here


# -- the new transforms -------------------------------------------------------

class TestTransforms:
    def test_pareto_remap_preserves_work_and_job_count(self):
        base = get_scenario("cplant-baseline").build(seed=2, **SMALL)
        tailed = remap_runtime_tail(base, dist="pareto", alpha=1.2)
        assert len(tailed) == len(base)
        assert tailed.total_work == pytest.approx(base.total_work, rel=0.02)

    def test_smaller_alpha_is_a_heavier_tail(self):
        base = get_scenario("cplant-baseline").build(seed=2, **SMALL)
        spread = lambda wl: (  # noqa: E731
            wl.runtimes().max() / np.median(wl.runtimes()))
        heavy = remap_runtime_tail(base, dist="pareto", alpha=1.05)
        light = remap_runtime_tail(base, dist="pareto", alpha=3.0)
        assert spread(heavy) > spread(light)

    def test_lognormal_variant_and_bad_dist(self):
        base = get_scenario("cplant-baseline").build(seed=2, **SMALL)
        ln = remap_runtime_tail(base, dist="lognormal", sigma=2.0)
        assert len(ln) == len(base)
        with pytest.raises(ValueError, match="unknown tail dist"):
            remap_runtime_tail(base, dist="weibull")

    def test_remap_keeps_wcl_at_least_runtime_ratio(self):
        """Overestimation factors survive: wcl scales with runtime."""
        base = get_scenario("cplant-baseline").build(seed=2, **SMALL)
        tailed = remap_runtime_tail(base, dist="pareto", alpha=1.2)
        by_id = {j.id: j for j in base.jobs}
        for j in tailed.jobs:
            orig = by_id[j.id]
            if orig.wcl >= orig.runtime and j.wcl > 60.0:
                assert j.wcl >= j.runtime * 0.999

    def test_flash_crowds_moves_about_the_requested_fraction(self):
        base = get_scenario("cplant-baseline").build(seed=2, **SMALL)
        crowded = flash_crowds(base, fraction=0.5, n_crowds=2,
                               width_hours=1.0, seed=9)
        assert len(crowded) == len(base)
        base_subs = {j.id: j.submit_time for j in base.jobs}
        moved = sum(
            1 for j in crowded.jobs if j.submit_time != base_subs[j.id]
        )
        assert 0.4 * len(base) <= moved <= 0.5 * len(base) + 1

    def test_flash_crowds_validates_inputs(self):
        base = get_scenario("cplant-baseline").build(seed=2, **SMALL)
        with pytest.raises(ValueError, match="fraction"):
            flash_crowds(base, fraction=1.5)
        with pytest.raises(ValueError, match="crowd"):
            flash_crowds(base, n_crowds=0)


# -- api integration ----------------------------------------------------------

class TestRunnerIntegration:
    def test_run_scenario_returns_standard_policy_runs(self):
        suite = api.compare(
            ["easy.fcfs", "cons.nomax"], scenario="wide-jobs", seed=1,
            params={"n_jobs": 80},
        )
        assert set(suite) == {"easy.fcfs", "cons.nomax"}
        for run in suite.values():
            assert isinstance(run, PolicyRun)
            assert run.summary.n_jobs == 80

    def test_run_scenario_accepts_single_policy_string(self):
        suite = api.compare("easy.fcfs", scenario="wide-jobs", seed=1,
                            params={"n_jobs": 60})
        assert list(suite) == ["easy.fcfs"]

    def test_scenario_options_are_defaults_not_mandates(self):
        # noisy-estimates defaults to estimate_mode="wcl"; caller overrides win
        default = api.SimulationRequest(
            policy="easy.fcfs", scenario="noisy-estimates", seed=1,
            params=SMALL,
        )
        assert default.resolve_options().estimate_mode == "wcl"
        mine = dataclasses.replace(default,
                                   options={"estimate_mode": "perfect"})
        assert mine.resolve_options().estimate_mode == "perfect"
        perfect = api.compare(
            "easy.fcfs", scenario="noisy-estimates", seed=1, params=SMALL,
            options={"estimate_mode": "perfect"},
        )["easy.fcfs"]
        assert perfect.digest() == api.run(mine).digest()
        assert perfect.digest() != api.run(default).digest()


# -- campaign integration -----------------------------------------------------

SCENARIO_SPEC = {
    "name": "scenario-sweep",
    "policies": ["easy.fcfs", "fcfs.nobackfill"],
    "scenarios": [
        {"scenario": "wide-jobs", "n_jobs": 60, "seeds": [1, 2]},
    ],
}


class TestCampaignIntegration:
    def test_scenarios_shorthand_expands_to_cells(self):
        spec = CampaignSpec.from_dict(SCENARIO_SPEC)
        cells = spec.expand()
        assert len(cells) == 4  # 2 policies x 2 seeds
        for c in cells:
            ident = c.identity()["workload"]
            assert ident["kind"] == "scenario"
            assert ident["scenario"] == "wide-jobs"
            # identity carries the *resolved* params (defaults filled in)
            assert ident["params"]["n_jobs"] == 60
            assert "load" in ident["params"]

    def test_explicit_default_param_is_the_same_cell(self):
        load = get_scenario("wide-jobs").param_defaults()["load"]
        base = CampaignSpec.from_dict(SCENARIO_SPEC).expand()
        spec2 = dict(SCENARIO_SPEC)
        spec2["scenarios"] = [
            {"scenario": "wide-jobs", "n_jobs": 60, "load": load,
             "seeds": [1, 2]},
        ]
        explicit = CampaignSpec.from_dict(spec2).expand()
        assert [cell_key(c) for c in base] == [cell_key(c) for c in explicit]

    def test_unknown_scenario_name_fails_validation(self):
        spec = CampaignSpec.from_dict({
            **SCENARIO_SPEC, "scenarios": ["no-such-regime"],
        })
        with pytest.raises(ValueError, match="unknown scenario"):
            spec.validate()

    def test_unknown_scenario_param_fails_validation(self):
        spec = CampaignSpec.from_dict({
            **SCENARIO_SPEC,
            "scenarios": [{"scenario": "wide-jobs", "bogus": 1}],
        })
        with pytest.raises(ValueError, match="no parameter"):
            spec.validate()

    def test_end_to_end_with_cache_hits_on_rerun(self, tmp_path):
        from repro.campaign import CampaignCache

        spec = CampaignSpec.from_dict(SCENARIO_SPEC)
        cache = CampaignCache(tmp_path / "cache")
        first = run_campaign(spec, jobs=1, cache=cache)
        assert (first.n_simulated, first.n_cached) == (4, 0)
        second = run_campaign(spec, jobs=1, cache=cache)
        assert (second.n_simulated, second.n_cached) == (0, 4)
        assert first.aggregate()["groups"] == second.aggregate()["groups"]


# -- docs ---------------------------------------------------------------------

class TestDocsCatalog:
    def test_every_scenario_is_documented(self):
        """docs/SCENARIOS.md is the catalog; a scenario missing from it is a
        doc bug (same check runs in CI via tools/check_docs.py)."""
        doc = (REPO_ROOT / "docs" / "SCENARIOS.md").read_text()
        for name in scenario_names():
            assert f"`{name}`" in doc, f"scenario {name} missing from docs/SCENARIOS.md"
