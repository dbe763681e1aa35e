"""The policy x reference-order fairness matrix and its reference-order
table."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api
from repro.experiments.matrix import (
    MATRIX_REFERENCE_ORDERS,
    MatrixConfig,
    matrix_from_suite,
    render_matrix,
    run_matrix,
)
from repro.campaign.cache import CampaignCache
from repro.metrics.fairness import REFERENCE_ORDERS
from repro.sched.registry import MATRIX_POLICIES

REPO_ROOT = Path(__file__).resolve().parent.parent

#: tiny but non-degenerate sweep for the executor round-trip tests
TINY = MatrixConfig(
    policies=("fcfs.nobackfill", "easy.fcfs", "rr.user"),
    scale=0.01,
    seed=3,
)


class TestReferenceOrderRegistry:
    def test_builtins_registered_in_order(self):
        names = tuple(REFERENCE_ORDERS)
        assert names == ("fairshare", "fcfs", "shortest-first")
        assert MATRIX_REFERENCE_ORDERS == names

    def test_unknown_order_lists_known_names(self):
        with pytest.raises(KeyError, match="fairshare.*fcfs.*shortest-first"):
            MatrixConfig(reference_orders=("lottery",))

    def test_order_metadata(self):
        for name, (description, order) in REFERENCE_ORDERS.items():
            assert name
            assert description
            assert callable(order)


class TestMatrixConfig:
    def test_defaults_are_the_registry_frontier(self):
        cfg = MatrixConfig()
        assert cfg.policies == MATRIX_POLICIES
        assert cfg.reference_orders == MATRIX_REFERENCE_ORDERS

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError, match="at least one policy"):
            MatrixConfig(policies=())
        with pytest.raises(ValueError, match="at least one reference order"):
            MatrixConfig(reference_orders=())
        with pytest.raises(ValueError, match="at least one scenario"):
            MatrixConfig(scenarios=())

    def test_unknown_policy_and_order_fail_before_any_simulation(self):
        with pytest.raises(KeyError, match="unknown policy"):
            MatrixConfig(policies=("bogus.policy",))
        with pytest.raises(KeyError, match="unknown reference order"):
            MatrixConfig(reference_orders=("bogus",))

    def test_options_pin_fairshare_first(self):
        cfg = MatrixConfig(reference_orders=("fcfs", "shortest-first"))
        assert cfg.options().reference_orders == (
            "fairshare", "fcfs", "shortest-first"
        )

    def test_cells_enumerate_scenario_major(self):
        cells = TINY.cells()
        assert len(cells) == len(TINY.policies)
        assert [c.policy for c in cells] == list(TINY.policies)


def _render(cfg, tables):
    return render_matrix(tables, cfg.reference_orders,
                         policies=cfg.policies, scenarios=cfg.scenarios)


class TestRunMatrix:
    def test_deterministic_in_process(self):
        _, a = run_matrix(TINY)
        _, b = run_matrix(TINY)
        assert _render(TINY, a) == _render(TINY, b)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_cache_round_trip(self, tmp_path):
        cache = CampaignCache(tmp_path / "cells")
        results, first = run_matrix(TINY, cache=cache)
        assert [r.cached for r in results] == [False] * len(TINY.policies)
        results, second = run_matrix(TINY, cache=cache)
        assert [r.cached for r in results] == [True] * len(TINY.policies)
        assert _render(TINY, second) == _render(TINY, first)

    def test_render_shape(self):
        _, tables = run_matrix(TINY)
        lines = _render(TINY, tables).splitlines()
        assert "scenario: cplant-baseline" in lines
        header = next(
            ln for ln in lines if ln.startswith("policy") and " | " in ln
        )
        for order in TINY.reference_orders:
            assert order in header
        for policy in TINY.policies:
            assert any(ln.startswith(policy) for ln in lines)

    def test_fcfs_nobackfill_row_is_exactly_fair_under_fcfs(self):
        _, tables = run_matrix(TINY)
        block = tables["cplant-baseline"]["fcfs.nobackfill"]["fcfs"]
        assert block["n_unfair"] == 0

    def test_deterministic_across_processes(self):
        here = _render(TINY, run_matrix(TINY)[1])
        prog = (
            "from repro.experiments.matrix import MatrixConfig, "
            "render_matrix, run_matrix\n"
            "cfg = MatrixConfig(policies=('fcfs.nobackfill', 'easy.fcfs', "
            "'rr.user'), scale=0.01, seed=3)\n"
            "print(render_matrix(run_matrix(cfg)[1], cfg.reference_orders, "
            "policies=cfg.policies, scenarios=cfg.scenarios))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        )
        proc = subprocess.run(
            [sys.executable, "-c", prog], env=env, capture_output=True,
            text=True, check=True,
        )
        assert proc.stdout.rstrip("\n") == here


class TestMatrixFromSuite:
    def test_requires_fairness_by_order(self, small_workload):
        suite = api.compare(["fcfs.nobackfill"], workload=small_workload)
        with pytest.raises(ValueError, match="fairness_by_order"):
            matrix_from_suite(suite, ("fairshare",))

    def test_renders_from_policy_runs(self, small_workload):
        from repro.experiments.runner import RunOptions, run_policy

        orders = ("fairshare", "fcfs")
        suite = {
            p: run_policy(small_workload, p, RunOptions(reference_orders=orders))
            for p in ("fcfs.nobackfill", "easy.fcfs")
        }
        rows = matrix_from_suite(suite, orders)
        assert set(rows) == {"fcfs.nobackfill", "easy.fcfs"}
        for blocks in rows.values():
            assert set(blocks) == set(orders)
            for block in blocks.values():
                assert 0.0 <= block["percent_unfair"] <= 1.0
        text = render_matrix({"small": rows}, orders)
        assert "scenario: small" in text
