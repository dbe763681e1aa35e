"""Data generators for the workload figures of the paper (Figures 3-7).

Figure 3 (weekly offered load vs utilization) renders the baseline
run's ``PolicyRun.weekly`` series; Figures 4-7 (workload scatter
characterization) consume the workload alone.  Each ``figNN_*``
function returns plain data (dicts / arrays); each ``render_figNN``
turns that into the text ``repro paper build`` writes.  Figures 8-19
each plot one per-run metric over one policy set and are declared as
one row each in :mod:`repro.artifacts.registry`.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..metrics.weekly import WeeklySeries, format_weekly
from ..workload.model import Workload
from .report import binned_medians, log_density


# -- Figure 3: weekly offered load vs utilization --------------------------------

def render_fig03(series: WeeklySeries) -> str:
    head = (
        "Figure 3: offered load and actual utilization by week "
        f"(peak offered {100 * series.offered_load.max():.0f}%, "
        f"mean utilization {100 * series.utilization.mean():.0f}%)"
    )
    return head + "\n" + format_weekly(series)


# -- Figures 4-7: workload scatter characterization --------------------------------

def fig04_runtime_vs_nodes(workload: Workload) -> Dict[str, np.ndarray]:
    return {"runtime": workload.runtimes(), "nodes": workload.nodes().astype(float)}


def render_fig04(data: Dict[str, np.ndarray]) -> str:
    return log_density(
        "Figure 4: runtime vs nodes (job count per log-log cell)",
        data["runtime"], data["nodes"], "runtime (s)", "nodes",
    )


def fig05_estimates(workload: Workload) -> Dict[str, np.ndarray]:
    return {"runtime": workload.runtimes(), "wcl": workload.wcls()}


def render_fig05(data: Dict[str, np.ndarray]) -> str:
    over = float((data["wcl"] >= data["runtime"]).mean())
    txt = log_density(
        "Figure 5: user estimate (WCL) vs runtime",
        data["runtime"], data["wcl"], "runtime (s)", "WCL (s)",
    )
    return txt + f"\njobs with WCL >= runtime: {100 * over:.1f}%"


def fig06_overestimation_vs_runtime(workload: Workload) -> Dict[str, np.ndarray]:
    rt = workload.runtimes()
    factor = np.where(rt > 0, workload.wcls() / np.maximum(rt, 1e-9), np.inf)
    return {"factor": factor, "runtime": rt}


def render_fig06(data: Dict[str, np.ndarray]) -> str:
    txt = log_density(
        "Figure 6: overestimation factor vs runtime",
        data["factor"], data["runtime"], "factor", "runtime (s)",
    )
    trend = binned_medians(data["runtime"], data["factor"])
    rows = "\n".join(
        f"  runtime~{c:>12.0f}s  median factor {m:>10.1f}  (n={n})"
        for c, m, n in zip(trend["bin_center"], trend["median"], trend["count"])
        if n > 0
    )
    return txt + "\nmedian factor by runtime (should fall with runtime):\n" + rows


def fig07_overestimation_vs_nodes(workload: Workload) -> Dict[str, np.ndarray]:
    rt = workload.runtimes()
    factor = np.where(rt > 0, workload.wcls() / np.maximum(rt, 1e-9), np.inf)
    return {"factor": factor, "nodes": workload.nodes().astype(float)}


def render_fig07(data: Dict[str, np.ndarray]) -> str:
    txt = log_density(
        "Figure 7: overestimation factor vs nodes",
        data["factor"], data["nodes"], "factor", "nodes",
    )
    trend = binned_medians(data["nodes"], data["factor"])
    rows = "\n".join(
        f"  nodes~{c:>8.0f}  median factor {m:>10.1f}  (n={n})"
        for c, m, n in zip(trend["bin_center"], trend["median"], trend["count"])
        if n > 0
    )
    return txt + "\nmedian factor by nodes (should be roughly flat):\n" + rows
