"""Persist experiment results as JSON/CSV.

A policy suite is an expensive artifact (minutes of simulation at full
scale); these helpers serialize everything the figures need so analysis
and plotting can happen in a separate process or notebook without
re-simulating.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, Mapping, Union

from ..workload.categories import WIDTH_LABELS
from .runner import PolicyRun

PathLike = Union[str, Path]


def policy_run_record(run: PolicyRun) -> Dict[str, object]:
    """Flatten one PolicyRun into JSON-serializable primitives.

    Everything the paper-artifact renderers consume rides along —
    including the Figure 3 weekly series — so a cached campaign cell can
    rebuild its figures without re-simulating (floats survive the JSON
    round trip exactly, keeping renderings byte-identical).
    """
    weekly = run.weekly
    out: Dict[str, object] = {
        "policy": run.policy,
        "summary": run.summary.as_dict(),
        "fairness": run.fairness.as_dict(),
        "loss_of_capacity": run.loss_of_capacity,
        "miss_by_width": [float(x) for x in run.miss_by_width],
        "turnaround_by_width": [float(x) for x in run.turnaround_by_width],
        "width_labels": list(WIDTH_LABELS),
        "events_processed": run.result.events_processed,
        "scheduler_jobs": len(run.result.jobs),
        "metric_jobs": len(run.metric_jobs),
        "weekly": {
            "week_start": [float(x) for x in weekly.week_start],
            "offered_load": [float(x) for x in weekly.offered_load],
            "utilization": [float(x) for x in weekly.utilization],
        },
    }
    if run.fairness_by_order is not None:
        # only multi-reference-order runs carry this block, so records of
        # the paper's default configuration keep their historical shape
        out["fairness_by_order"] = {
            name: stats.as_dict()
            for name, stats in sorted(run.fairness_by_order.items())
        }
    return out


def export_suite_json(suite: Mapping[str, PolicyRun], path: PathLike) -> None:
    """One JSON document with every policy's metrics."""
    doc = {key: policy_run_record(run) for key, run in suite.items()}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def export_suite_csv(suite: Mapping[str, PolicyRun], path: PathLike) -> None:
    """Headline metrics, one row per policy (spreadsheet-friendly)."""
    fields = [
        "policy", "n_jobs", "percent_unfair", "average_miss_time",
        "avg_wait", "avg_turnaround", "avg_slowdown", "utilization",
        "loss_of_capacity", "makespan",
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for key, run in suite.items():
            s, f = run.summary, run.fairness
            writer.writerow({
                "policy": key,
                "n_jobs": s.n_jobs,
                "percent_unfair": f.percent_unfair,
                "average_miss_time": f.average_miss_time,
                "avg_wait": s.avg_wait,
                "avg_turnaround": s.avg_turnaround,
                "avg_slowdown": s.avg_slowdown,
                "utilization": s.utilization,
                "loss_of_capacity": run.loss_of_capacity,
                "makespan": s.makespan,
            })


def export_per_job_csv(run: PolicyRun, path: PathLike) -> None:
    """Per-trace-job outcomes for one policy: submit/start/end, FST, miss."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "job_id", "user_id", "nodes", "runtime", "wcl",
            "submit_time", "start_time", "end_time", "fst", "miss_time",
        ])
        for j in sorted(run.metric_jobs, key=lambda x: x.id):
            fst = run.fst[j.id]
            writer.writerow([
                j.id, j.user_id, j.nodes, f"{j.runtime:.3f}", f"{j.wcl:.3f}",
                f"{j.submit_time:.3f}", f"{j.start_time:.3f}",
                f"{j.end_time:.3f}", f"{fst:.3f}",
                f"{max(0.0, j.start_time - fst):.3f}",
            ])


def load_suite_json(path: PathLike) -> Dict[str, Dict[str, object]]:
    """Read back an :func:`export_suite_json` document."""
    return json.loads(Path(path).read_text())


# -- campaign aggregates ------------------------------------------------------
#
# These accept the plain aggregate document produced by
# ``repro.campaign.aggregate_cells`` (no campaign import here — the
# campaign package imports :func:`policy_run_record` from this module).

CAMPAIGN_CSV_FIELDS = [
    "campaign", "workload", "policy", "overrides", "metric",
    "n", "mean", "std", "ci95", "min", "max",
]


def export_campaign_json(doc: Dict[str, object], path: PathLike) -> None:
    """Write an aggregate document; deterministic bytes for identical
    metrics (sorted keys, no timing or provenance fields)."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def export_campaign_csv(rows, path: PathLike) -> None:
    """Write ``repro.campaign.aggregate_rows`` output (long format: one
    row per group x metric)."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CAMPAIGN_CSV_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
