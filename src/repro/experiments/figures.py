"""Data generators for every figure in the paper (Figures 3-19).

Workload-characterization figures (3-7) consume a workload (Figure 3 also
needs a baseline simulation).  Policy figures (8-19) consume a policy
suite (policy key -> run, e.g. from :func:`repro.api.compare`) so the
expensive simulations are shared across figures.

Each ``figNN_*`` function returns plain data (dicts / arrays); each
``render_figNN`` turns that into the text ``repro paper build`` writes.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

import numpy as np

from ..metrics.weekly import WeeklySeries, format_weekly, weekly_series
from ..sched.registry import CONSERVATIVE_POLICIES, MINOR_POLICIES, PAPER_POLICIES
from ..workload.categories import WIDTH_LABELS
from ..workload.model import Workload
from .report import bar_chart, binned_medians, log_density, series_table
from .runner import PolicyRun

Suite = Mapping[str, PolicyRun]


def _subset(suite: Suite, keys: Sequence[str]) -> Dict[str, PolicyRun]:
    missing = [k for k in keys if k not in suite]
    if missing:
        raise KeyError(f"suite is missing policies: {missing}")
    return {k: suite[k] for k in keys}


# -- Figure 3: weekly offered load vs utilization --------------------------------

def fig03_weekly_load(baseline: PolicyRun, workload: Workload) -> WeeklySeries:
    return weekly_series(baseline.result.jobs, workload.system_size)


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


# -- Figures 8-13: the "minor changes" policy set -----------------------------------

def fig08_percent_unfair_minor(suite: Suite) -> Dict[str, float]:
    return {k: r.percent_unfair for k, r in _subset(suite, MINOR_POLICIES).items()}


def render_fig08(data: Dict[str, float]) -> str:
    return bar_chart(
        "Figure 8: percent of jobs missing their fair start time (minor changes)",
        data, percent=True,
    )


def fig09_miss_time_minor(suite: Suite) -> Dict[str, float]:
    return {k: r.average_miss_time for k, r in _subset(suite, MINOR_POLICIES).items()}


def render_fig09(data: Dict[str, float]) -> str:
    return bar_chart(
        "Figure 9: average fair-start miss time, seconds (minor changes)",
        data, unit="s",
    )


def fig10_miss_by_width_minor(suite: Suite) -> Dict[str, np.ndarray]:
    return {k: r.miss_by_width for k, r in _subset(suite, MINOR_POLICIES).items()}


def render_fig10(data: Dict[str, np.ndarray]) -> str:
    return series_table(
        "Figure 10: average miss time by job width (minor changes)",
        WIDTH_LABELS, data,
    )


def fig11_turnaround_minor(suite: Suite) -> Dict[str, float]:
    return {
        k: r.average_turnaround for k, r in _subset(suite, MINOR_POLICIES).items()
    }


def render_fig11(data: Dict[str, float]) -> str:
    return bar_chart(
        "Figure 11: average turnaround time, seconds (minor changes)",
        data, unit="s",
    )


def fig12_turnaround_by_width_minor(suite: Suite) -> Dict[str, np.ndarray]:
    return {
        k: r.turnaround_by_width for k, r in _subset(suite, MINOR_POLICIES).items()
    }


def render_fig12(data: Dict[str, np.ndarray]) -> str:
    return series_table(
        "Figure 12: average turnaround time by job width (minor changes)",
        WIDTH_LABELS, data,
    )


def fig13_loc_minor(suite: Suite) -> Dict[str, float]:
    return {
        k: r.loss_of_capacity for k, r in _subset(suite, MINOR_POLICIES).items()
    }


def render_fig13(data: Dict[str, float]) -> str:
    return bar_chart(
        "Figure 13: loss of capacity (minor changes)", data, percent=True,
    )


# -- Figures 14-19: all nine policies ---------------------------------------------------

def fig14_percent_unfair_all(suite: Suite) -> Dict[str, float]:
    return {k: r.percent_unfair for k, r in _subset(suite, PAPER_POLICIES).items()}


def render_fig14(data: Dict[str, float]) -> str:
    return bar_chart(
        "Figure 14: percent of jobs missing their fair start time (all policies)",
        data, percent=True,
    )


def fig15_miss_time_all(suite: Suite) -> Dict[str, float]:
    return {k: r.average_miss_time for k, r in _subset(suite, PAPER_POLICIES).items()}


def render_fig15(data: Dict[str, float]) -> str:
    return bar_chart(
        "Figure 15: average fair-start miss time, seconds (all policies)",
        data, unit="s",
    )


def fig16_miss_by_width_cons(suite: Suite) -> Dict[str, np.ndarray]:
    return {
        k: r.miss_by_width for k, r in _subset(suite, CONSERVATIVE_POLICIES).items()
    }


def render_fig16(data: Dict[str, np.ndarray]) -> str:
    return series_table(
        "Figure 16: average miss time by job width (conservative set)",
        WIDTH_LABELS, data,
    )


def fig17_turnaround_all(suite: Suite) -> Dict[str, float]:
    return {
        k: r.average_turnaround for k, r in _subset(suite, PAPER_POLICIES).items()
    }


def render_fig17(data: Dict[str, float]) -> str:
    return bar_chart(
        "Figure 17: average turnaround time, seconds (all policies)",
        data, unit="s",
    )


def fig18_turnaround_by_width_cons(suite: Suite) -> Dict[str, np.ndarray]:
    return {
        k: r.turnaround_by_width
        for k, r in _subset(suite, CONSERVATIVE_POLICIES).items()
    }


def render_fig18(data: Dict[str, np.ndarray]) -> str:
    return series_table(
        "Figure 18: average turnaround time by job width (conservative set)",
        WIDTH_LABELS, data,
    )


def fig19_loc_all(suite: Suite) -> Dict[str, float]:
    return {
        k: r.loss_of_capacity for k, r in _subset(suite, PAPER_POLICIES).items()
    }


def render_fig19(data: Dict[str, float]) -> str:
    return bar_chart(
        "Figure 19: loss of capacity (all policies)", data, percent=True,
    )
