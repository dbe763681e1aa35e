"""The policy x reference-order fairness matrix: the reference-order
registry, the ``repro matrix`` command (its grid runs as a campaign
through ``api.sweep``) and the suite projection its table renders from."""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api
from repro.campaign import executor
from repro.cli import main
from repro.experiments.matrix import (
    MATRIX_REFERENCE_ORDERS,
    MATRIX_SCENARIOS,
    matrix_from_suite,
    render_matrix,
)
from repro.experiments.runner import RunOptions
from repro.metrics.fairness import REFERENCE_ORDERS
from repro.sched.registry import MATRIX_POLICIES

REPO_ROOT = Path(__file__).resolve().parent.parent

#: tiny sweep for the command round-trip tests: 131 jobs, on which every
#: cell reads 0% unfair, so these pin plumbing and layout, not values
TINY_POLICIES = ("fcfs.nobackfill", "easy.fcfs", "rr.user")
TINY = ["--policies", ",".join(TINY_POLICIES), "--scale", "0.01",
        "--seed", "3"]

#: sha256 of the text and JSON that ``repro matrix`` + TINY writes,
#: recorded while the command still ran its own grid executor
TINY_TEXT_SHA256 = (
    "47543b6cf5e3edfa00108e7c264109b6328b8f51dcdc802d611bb69e47ae046d")
TINY_JSON_SHA256 = (
    "a2bef82e3caa35f073d87902e654496901ce6591339a73829939bd103978022d")


#: TINY's policies on twice the trace (267 jobs), where 6 of the 9 cells
#: read a non-zero unfair share, so these digests see fairness numbers
FAIR = ["--policies", ",".join(TINY_POLICIES), "--scale", "0.02",
        "--seed", "3"]
FAIR_TEXT_SHA256 = (
    "ace59b052858a52c078b68ba82693e8d3186f91e97d5d391ad4de832362b8c17")
FAIR_JSON_SHA256 = (
    "c40ece45702508154fe5bac081c5b10102f9ef707c26367ae91673cdc815f4ab")


def run_matrix_command(tmp_path, capsys, *extra, tag="m", axes=TINY):
    """Run ``repro matrix`` + ``axes`` in process (``--no-cache`` unless
    ``extra`` names a cache); returns its stdout, text and JSON bytes."""
    text, doc = tmp_path / f"{tag}.txt", tmp_path / f"{tag}.json"
    cache = [] if "--cache-dir" in extra else ["--no-cache"]
    assert main(["matrix", *axes, *cache, *extra, "--out", str(text),
                 "--json", str(doc)]) == 0
    return capsys.readouterr().out, text.read_bytes(), doc.read_bytes()


class TestReferenceOrderRegistry:
    def test_builtins_registered_in_order(self):
        names = tuple(REFERENCE_ORDERS)
        assert names == ("fairshare", "fcfs", "shortest-first")
        assert MATRIX_REFERENCE_ORDERS == names

    def test_unknown_order_lists_known_names(self):
        with pytest.raises(ValueError, match="fairshare.*fcfs.*shortest-first"):
            RunOptions(reference_orders=("lottery",))

    def test_order_metadata(self):
        for name, (description, order) in REFERENCE_ORDERS.items():
            assert name
            assert description
            assert callable(order)


class TestMatrixConfig:
    """The command's axes: defaults, validation and grid order."""

    def test_defaults_are_the_registry_frontier(self, tmp_path):
        doc = tmp_path / "m.json"
        assert main(["matrix", "--scale", "0.01", "--seed", "3",
                     "--no-cache", "--quiet", "--json", str(doc)]) == 0
        data = json.loads(doc.read_text())
        assert data["config"] == {
            "policies": list(MATRIX_POLICIES),
            "reference_orders": list(MATRIX_REFERENCE_ORDERS),
            "scenarios": list(MATRIX_SCENARIOS),
            "scale": 0.01,
            "seed": 3,
        }
        assert set(data["matrix"]) == set(MATRIX_SCENARIOS)
        for rows in data["matrix"].values():
            assert set(rows) == set(MATRIX_POLICIES)

    def test_unknown_policy_and_order_fail_before_any_simulation(
        self, monkeypatch, capsys,
    ):
        def no_simulation(cells):
            raise AssertionError(f"simulated {cells[0].label()}")

        monkeypatch.setattr(executor, "run_family", no_simulation)
        for argv, message in [
            (["--policies", "bogus.policy"], "unknown policy"),
            (["--orders", "bogus"], "unknown reference order"),
            (["--scenarios", "no-such-regime"], "unknown scenario"),
        ]:
            assert main(["matrix", *argv, "--no-cache"]) == 2
            out, err = capsys.readouterr()
            assert message in err
            assert "simulated" not in out

    def test_cells_enumerate_scenario_major(self, capsys):
        assert main(["matrix", "--policies", "fcfs.nobackfill,easy.fcfs",
                     "--scenarios", "narrow-cluster,cplant-baseline",
                     "--scale", "0.01", "--seed", "3", "--no-cache"]) == 0
        ran = re.findall(r"^\[matrix\]\s+\d+/4 run\s+(\S+) on ([\w-]+)\(",
                         capsys.readouterr().out, flags=re.M)
        assert ran == [
            (policy, scenario)
            for scenario in ("narrow-cluster", "cplant-baseline")
            for policy in ("fcfs.nobackfill", "easy.fcfs")
        ]


class TestRunMatrix:
    def test_outputs_match_the_pinned_digests(self, tmp_path, capsys):
        _, text, doc = run_matrix_command(tmp_path, capsys)
        assert hashlib.sha256(text).hexdigest() == TINY_TEXT_SHA256
        assert hashlib.sha256(doc).hexdigest() == TINY_JSON_SHA256

    def test_fairness_outputs_match_the_pinned_digests(self, tmp_path, capsys):
        _, text, doc = run_matrix_command(tmp_path, capsys, axes=FAIR)
        assert hashlib.sha256(text).hexdigest() == FAIR_TEXT_SHA256
        assert hashlib.sha256(doc).hexdigest() == FAIR_JSON_SHA256
        cells = [
            cell
            for rows in json.loads(doc)["matrix"].values()
            for orders in rows.values()
            for cell in orders.values()
        ]
        assert any(cell["percent_unfair"] > 0 for cell in cells)

    def test_deterministic_in_process(self, tmp_path, capsys):
        _, text_a, doc_a = run_matrix_command(tmp_path, capsys, tag="a")
        _, text_b, doc_b = run_matrix_command(tmp_path, capsys, tag="b")
        assert text_a == text_b
        assert doc_a == doc_b

    def test_cache_round_trip(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path / "cells")]
        first, text_a, doc_a = run_matrix_command(tmp_path, capsys, *cache, tag="a")
        assert "(3 simulated, 0 cached)" in first
        second, text_b, doc_b = run_matrix_command(tmp_path, capsys, *cache, tag="b")
        assert "(0 simulated, 3 cached)" in second
        assert (text_b, doc_b) == (text_a, doc_a)

    def test_render_shape(self, tmp_path, capsys):
        _, text, _ = run_matrix_command(tmp_path, capsys)
        lines = text.decode().splitlines()
        assert "scenario: cplant-baseline" in lines
        header = next(
            ln for ln in lines if ln.startswith("policy") and " | " in ln
        )
        for order in MATRIX_REFERENCE_ORDERS:
            assert order in header
        for policy in TINY_POLICIES:
            assert any(ln.startswith(policy) for ln in lines)

    def test_fcfs_nobackfill_row_is_exactly_fair_under_fcfs(
        self, tmp_path, capsys,
    ):
        _, _, doc = run_matrix_command(tmp_path, capsys)
        rows = json.loads(doc)["matrix"]["cplant-baseline"]
        assert rows["fcfs.nobackfill"]["fcfs"]["n_unfair"] == 0

    def test_deterministic_across_processes(self, tmp_path, capsys):
        _, here, _ = run_matrix_command(tmp_path, capsys)
        there = tmp_path / "there.txt"
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        )
        subprocess.run(
            [sys.executable, "-m", "repro", "matrix", *TINY, "--no-cache",
             "--quiet", "--out", str(there)],
            env=env, capture_output=True, check=True,
        )
        assert there.read_bytes() == here


class TestMatrixFromSuite:
    def test_requires_fairness_by_order(self, small_workload):
        suite = api.compare(["fcfs.nobackfill"], workload=small_workload)
        with pytest.raises(ValueError, match="fairness_by_order"):
            matrix_from_suite(suite, ("fairshare",))

    def test_renders_from_policy_runs(self, small_workload):
        from repro.experiments.runner import run_policy

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
