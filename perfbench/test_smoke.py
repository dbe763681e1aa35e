"""Smoke test of the benchmark itself, at a tiny trace scale.

Run from the repository root: ``python -m pytest perfbench -q``.

Every workload must complete correctly, untraced and traced; each run
must print every metric BENCHMARK.json names for its mode, with its unit;
a traced run checks internally that tracing changed no digest, and a
second traced run that the exact counts repeat.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SCALE = {"policy-sweep": "0.03", "paper-build": "0.03",
         "service-stream": "0.05"}


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--scale", SCALE[workload]],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_declared(result: dict, section: str) -> None:
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCH[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = bench(workload, 0)
    assert_declared(result, "end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.fixture(scope="module")
def traced():
    """Two traced runs per workload; the second compares its counts with
    the first one's."""
    return {w: (bench(w, 1), bench(w, 1)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_counts_and_keep_digests(traced, workload):
    first, second = traced[workload]
    assert_declared(first, "per_layer")
    assert_declared(second, "per_layer")
    if workload != "service-stream":  # the server runs no api.run cells
        assert first["metrics"]["trace.coverage"]["value"] >= 0.9


def test_every_per_layer_metric_is_measured_by_some_workload(traced):
    measured = set()
    for workload in WORKLOADS:
        doc = json.loads((ROOT / ".perfbench" / f"trace-{workload}.json")
                         .read_text())
        measured |= set(doc["layers"])
    declared = {m["name"] for m in BENCH["per_layer"]}
    assert declared <= measured, sorted(declared - measured)
