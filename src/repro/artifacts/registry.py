"""The paper-artifact registry: Figures 3-19 and Tables 1-2.

Every artifact of the source paper is registered here as one
:class:`~repro.artifacts.spec.Artifact` — its required simulation cells
(policy keys), its data projection, its renderer, and the qualitative
shape check ``repro paper build --check`` asserts.  Figures 3-7 and
Tables 1-2 reuse the projections in :mod:`repro.experiments.figures` /
:mod:`repro.experiments.tables`; each of Figures 8-19 plots one run
attribute over one policy set and is one :func:`_policy_figure` row.

``repro paper build`` executes any selection of them through the
campaign cache (see :mod:`repro.artifacts.build`); ``repro figures`` and
``repro tables`` render the same registrations in-process.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..experiments import figures as F
from ..experiments import tables as T
from ..experiments.matrix import (
    MATRIX_REFERENCE_ORDERS,
    matrix_from_suite,
    render_matrix_rows,
)
from ..experiments.report import bar_chart, series_table
from ..experiments.runner import RunOptions
from ..sched.registry import (
    CONSERVATIVE_POLICIES,
    MATRIX_POLICIES,
    MINOR_POLICIES,
    PAPER_POLICIES,
)
from ..workload.categories import WIDTH_LABELS
from .spec import Artifact

#: the original CPlant scheduler — the baseline bar of every comparison
BASELINE = PAPER_POLICIES[0]

_REGISTRY: Dict[str, Artifact] = {}


def register(artifact: Artifact) -> Artifact:
    if artifact.id in _REGISTRY:
        raise ValueError(f"duplicate artifact id {artifact.id!r}")
    clash = [a.id for a in _REGISTRY.values() if a.output == artifact.output]
    if clash:
        raise ValueError(
            f"artifact {artifact.id!r} output {artifact.output!r} "
            f"already used by {clash}"
        )
    _REGISTRY[artifact.id] = artifact
    return artifact


def get_artifact(artifact_id: str) -> Artifact:
    try:
        return _REGISTRY[artifact_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown artifact {artifact_id!r}; known: {known}") from None


def all_artifacts() -> List[Artifact]:
    return list(_REGISTRY.values())


def select_artifacts(only: Optional[Sequence[str]] = None) -> List[Artifact]:
    """The build selection: every artifact, or the ``--only`` subset (in
    registry order, duplicates collapsed)."""
    if only is None:
        return all_artifacts()
    wanted = set(only)
    unknown = sorted(wanted - set(_REGISTRY))
    if unknown:
        known = ", ".join(_REGISTRY)
        raise KeyError(f"unknown artifact ids {unknown}; known: {known}")
    return [a for a in _REGISTRY.values() if a.id in wanted]


# -- Figure 3: weekly offered load vs utilization ------------------------------


def _fig03_check(series, shape: bool) -> None:
    assert (series.utilization <= 1.0 + 1e-9).all()
    if shape:
        # the paper's signature load shape: overload weeks exist and
        # high-load weeks push utilization up hard
        assert series.offered_load.max() > 1.0
        assert series.utilization.max() > 0.8


register(
    Artifact(
        id="fig03",
        kind="figure",
        title="weekly offered load vs actual utilization",
        output="fig03_weekly_load.txt",
        data=lambda inp: inp.suite[BASELINE].weekly,
        render=F.render_fig03,
        policies=(BASELINE,),
        check=_fig03_check,
    )
)


# -- Figures 4-7: workload scatter characterization ----------------------------


def _fig04_check(data, shape: bool) -> None:
    # "standard" node allocations: powers of two dominate (Section 2.2)
    nodes = data["nodes"].astype(int)
    pow2 = np.mean((nodes & (nodes - 1)) == 0)
    assert pow2 > 0.4


register(
    Artifact(
        id="fig04",
        kind="figure",
        title="runtime vs nodes scatter of submitted jobs",
        output="fig04_runtime_nodes.txt",
        data=lambda inp: F.fig04_runtime_vs_nodes(inp.workload),
        render=F.render_fig04,
        needs_workload=True,
        check=_fig04_check,
    )
)


def _fig05_check(data, shape: bool) -> None:
    # most jobs overestimate; a small tail of killed/aborted jobs ran
    # past their estimate (Section 2.2)
    over = (data["wcl"] >= data["runtime"]).mean()
    under = (data["wcl"] < 0.95 * data["runtime"]).mean()
    assert over > 0.85
    assert 0.0 < under < 0.1


register(
    Artifact(
        id="fig05",
        kind="figure",
        title="user wall-clock estimates vs actual runtimes",
        output="fig05_estimates.txt",
        data=lambda inp: F.fig05_estimates(inp.workload),
        render=F.render_fig05,
        needs_workload=True,
        check=_fig05_check,
    )
)


def _fig06_check(data, shape: bool) -> None:
    rt, f = data["runtime"], data["factor"]
    ok = (rt > 0) & np.isfinite(f)
    short = np.median(f[ok & (rt < 900)])
    long_ = np.median(f[ok & (rt > 86_400)])
    assert short > 2 * long_  # the wedge


register(
    Artifact(
        id="fig06",
        kind="figure",
        title="overestimation factor falls with runtime",
        output="fig06_overest_runtime.txt",
        data=lambda inp: F.fig06_overestimation_vs_runtime(inp.workload),
        render=F.render_fig06,
        needs_workload=True,
        check=_fig06_check,
    )
)


def _fig07_check(data, shape: bool) -> None:
    nd, f = data["nodes"], data["factor"]
    ok = np.isfinite(f) & (f > 0)
    # medians across narrow/wide halves stay within a small factor of
    # each other ("appears unrelated to the node selection")
    narrow = np.median(f[ok & (nd <= 16)])
    wide = np.median(f[ok & (nd > 16)])
    assert max(narrow, wide) / min(narrow, wide) < 5.0


register(
    Artifact(
        id="fig07",
        kind="figure",
        title="overestimation factor is roughly unrelated to width",
        output="fig07_overest_nodes.txt",
        data=lambda inp: F.fig07_overestimation_vs_nodes(inp.workload),
        render=F.render_fig07,
        needs_workload=True,
        check=_fig07_check,
    )
)


# -- Figures 8-19: one per-run metric over one policy set ----------------------

#: ``bar_chart`` units of the scalar metrics; a ``*_by_width`` metric
#: renders one row per width category instead
_BAR_UNITS: Dict[str, Dict[str, object]] = {
    "percent_unfair": {"percent": True},
    "average_miss_time": {"unit": "s"},
    "average_turnaround": {"unit": "s"},
    "loss_of_capacity": {"percent": True},
}


def _policy_figure(
    fig_id: str,
    title: str,
    output: str,
    caption: str,
    policies: Tuple[str, ...],
    metric: str,
    check: Callable[[object, bool], None],
) -> None:
    """Register the figure plotting run attribute ``metric`` (shared by
    ``PolicyRun`` and ``RecordRun``) for each policy of ``policies``."""
    if metric.endswith("_by_width"):
        render = partial(series_table, caption, WIDTH_LABELS)
    else:
        render = partial(bar_chart, caption, **_BAR_UNITS[metric])
    register(
        Artifact(
            id=fig_id,
            kind="figure",
            title=title,
            output=output,
            data=lambda inp: {k: getattr(r, metric) for k, r in inp.suite.items()},
            render=render,
            policies=policies,
            check=check,
        )
    )


# -- Figures 8-13: the "minor changes" policy set ------------------------------


def _fig08_check(data, shape: bool) -> None:
    assert all(0.0 <= v <= 1.0 for v in data.values())
    if shape:
        base = data["cplant24.nomax.all"]
        assert data["cplant72.nomax.all"] < base
        assert data["cplant24.nomax.fair"] < base
        # the combination is among the best of the minor-change family
        assert data["cplant72.72max.fair"] < base


_policy_figure(
    "fig08",
    "percent of jobs missing their fair start time (minor changes)",
    "fig08_percent_unfair_minor.txt",
    "Figure 8: percent of jobs missing their fair start time (minor changes)",
    MINOR_POLICIES,
    "percent_unfair",
    _fig08_check,
)


def _fig09_check(data, shape: bool) -> None:
    assert all(v >= 0.0 for v in data.values())
    if shape:
        base = data["cplant24.nomax.all"]
        assert data["cplant24.72max.all"] < base * 1.1
        assert data["cplant72.72max.fair"] < base


_policy_figure(
    "fig09",
    "average fair-start miss time (minor changes)",
    "fig09_miss_time_minor.txt",
    "Figure 9: average fair-start miss time, seconds (minor changes)",
    MINOR_POLICIES,
    "average_miss_time",
    _fig09_check,
)


def _fig10_check(data, shape: bool) -> None:
    if shape:
        base = data["cplant24.nomax.all"]
        # wide half of the categories misses more than the narrow half
        narrow = np.nanmean(base[:5])
        wide = np.nanmean(base[5:])
        assert wide > narrow


_policy_figure(
    "fig10",
    "average miss time by job width (minor changes)",
    "fig10_miss_by_width_minor.txt",
    "Figure 10: average miss time by job width (minor changes)",
    MINOR_POLICIES,
    "miss_by_width",
    _fig10_check,
)


def _fig11_check(data, shape: bool) -> None:
    assert all(v > 0.0 for v in data.values())
    if shape:
        base = data["cplant24.nomax.all"]
        assert data["cplant24.72max.all"] <= base * 1.05
        assert data["cplant72.72max.fair"] < base


_policy_figure(
    "fig11",
    "average turnaround time (minor changes)",
    "fig11_tat_minor.txt",
    "Figure 11: average turnaround time, seconds (minor changes)",
    MINOR_POLICIES,
    "average_turnaround",
    _fig11_check,
)


def _fig12_check(data, shape: bool) -> None:
    if shape:
        base = data["cplant24.nomax.all"]
        assert np.nanmean(base[7:]) > np.nanmean(base[:4])


_policy_figure(
    "fig12",
    "average turnaround time by width (minor changes)",
    "fig12_tat_by_width_minor.txt",
    "Figure 12: average turnaround time by job width (minor changes)",
    MINOR_POLICIES,
    "turnaround_by_width",
    _fig12_check,
)


def _fig13_check(data, shape: bool) -> None:
    for v in data.values():
        assert 0.0 <= v < 0.5
    if shape:
        base = data["cplant24.nomax.all"]
        assert data["cplant24.72max.all"] < base * 1.05


_policy_figure(
    "fig13",
    "loss of capacity (minor changes)",
    "fig13_loc_minor.txt",
    "Figure 13: loss of capacity (minor changes)",
    MINOR_POLICIES,
    "loss_of_capacity",
    _fig13_check,
)


# -- Figures 14-19: all nine policies ------------------------------------------


def _fig14_check(data, shape: bool) -> None:
    if shape:
        # dynamic reservations: fewer unfair jobs than the baseline and
        # both plain conservative variants
        dyn = min(data["consdyn.nomax"], data["consdyn.72max"])
        assert dyn < data["cplant24.nomax.all"]
        assert dyn < data["cons.nomax"]
        assert dyn < data["cons.72max"]


_policy_figure(
    "fig14",
    "percent of unfair jobs (all nine policies)",
    "fig14_percent_unfair_all.txt",
    "Figure 14: percent of jobs missing their fair start time (all policies)",
    PAPER_POLICIES,
    "percent_unfair",
    _fig14_check,
)


def _fig15_check(data, shape: bool) -> None:
    assert all(v >= 0.0 for v in data.values())
    if shape:
        # runtime limits lower the conservative-family miss times
        assert data["cons.72max"] < data["cons.nomax"] * 1.2
        assert data["consdyn.72max"] < data["consdyn.nomax"] * 1.1
        # the dynamic no-limit policy misses hard when it misses
        assert data["consdyn.nomax"] > data["cplant72.72max.fair"]


_policy_figure(
    "fig15",
    "average miss time (all nine policies)",
    "fig15_miss_time_all.txt",
    "Figure 15: average fair-start miss time, seconds (all policies)",
    PAPER_POLICIES,
    "average_miss_time",
    _fig15_check,
)


def _fig16_check(data, shape: bool) -> None:
    if shape:
        base_wide = np.nansum(data["cplant24.nomax.all"][6:])
        cons_wide = np.nansum(data["cons.72max"][6:])
        assert cons_wide < base_wide * 1.5


_policy_figure(
    "fig16",
    "average miss time by width (conservative set)",
    "fig16_miss_by_width_cons.txt",
    "Figure 16: average miss time by job width (conservative set)",
    CONSERVATIVE_POLICIES,
    "miss_by_width",
    _fig16_check,
)


def _fig17_check(data, shape: bool) -> None:
    assert all(v > 0.0 for v in data.values())
    if shape:
        base = data["cplant24.nomax.all"]
        # the all-modifications baseline variant and the limited
        # conservative schemes sit at or below the original scheduler
        assert data["cplant72.72max.fair"] < base
        assert data["consdyn.72max"] < base * 1.25


_policy_figure(
    "fig17",
    "average turnaround time (all nine policies)",
    "fig17_tat_all.txt",
    "Figure 17: average turnaround time, seconds (all policies)",
    PAPER_POLICIES,
    "average_turnaround",
    _fig17_check,
)


def _fig18_check(data, shape: bool) -> None:
    for series in data.values():
        assert series.shape == (11,)
        assert np.nanmax(series) >= 0
    if shape:
        base_wide = np.nansum(data["cplant24.nomax.all"][6:])
        cons_wide = np.nansum(data["cons.72max"][6:])
        assert cons_wide < base_wide * 1.5


_policy_figure(
    "fig18",
    "turnaround time by width (conservative set)",
    "fig18_tat_by_width_cons.txt",
    "Figure 18: average turnaround time by job width (conservative set)",
    CONSERVATIVE_POLICIES,
    "turnaround_by_width",
    _fig18_check,
)


def _fig19_check(data, shape: bool) -> None:
    assert all(0.0 <= v < 1.0 for v in data.values())
    if shape:
        assert data["cons.72max"] < data["cons.nomax"]
        assert data["consdyn.72max"] < data["consdyn.nomax"]
        assert data["cons.72max"] < data["consdyn.nomax"]


_policy_figure(
    "fig19",
    "loss of capacity (all nine policies)",
    "fig19_loc_all.txt",
    "Figure 19: loss of capacity (all policies)",
    PAPER_POLICIES,
    "loss_of_capacity",
    _fig19_check,
)


# -- Tables 1-2: the width x length workload characterization ------------------


def _table1_check(cmp, shape: bool) -> None:
    # the generator reproduces Table 1 cellwise (proportionally at
    # scale < 1)
    assert cmp.l1_rel_error < 0.25


register(
    Artifact(
        id="table1",
        kind="table",
        title="number of jobs in each length/width category",
        output="table1_job_counts.txt",
        data=lambda inp: T.table1_job_counts(inp.workload),
        render=T.render_table1,
        needs_workload=True,
        check=_table1_check,
    )
)


def _table2_check(cmp, shape: bool) -> None:
    assert cmp.l1_rel_error < 0.35


register(
    Artifact(
        id="table2",
        kind="table",
        title="processor-hours in each length/width category",
        output="table2_proc_hours.txt",
        data=lambda inp: T.table2_proc_hours(inp.workload),
        render=T.render_table2,
        needs_workload=True,
        check=_table2_check,
    )
)


# -- the fairness matrix: policy x reference order (extension) -----------------


def _matrix_render(rows) -> str:
    out = [
        "Fairness matrix: policy x hybrid-FST reference order "
        "(shared CPlant trace)",
        "(cell: % of jobs missing their FST | average miss time, hours)",
        "",
    ]
    out.extend(
        render_matrix_rows(rows, MATRIX_REFERENCE_ORDERS,
                           policies=MATRIX_POLICIES)
    )
    return "\n".join(out)


def _matrix_check(rows, shape: bool) -> None:
    for by_order in rows.values():
        for block in by_order.values():
            assert 0.0 <= block["percent_unfair"] <= 1.0
            assert block["average_miss_time"] >= 0.0
            assert block["n_jobs"] > 0
    # with perfect estimates, strict FCFS-no-backfill *is* the FCFS-order
    # hypothetical schedule, so it must be exactly fair under that order
    assert rows["fcfs.nobackfill"]["fcfs"]["n_unfair"] == 0


register(
    Artifact(
        id="matrix",
        kind="table",
        title="policy x reference-order fairness matrix",
        output="matrix_policy_fairness.txt",
        data=lambda inp: matrix_from_suite(inp.suite, MATRIX_REFERENCE_ORDERS),
        render=_matrix_render,
        policies=MATRIX_POLICIES,
        check=_matrix_check,
        options=RunOptions(reference_orders=MATRIX_REFERENCE_ORDERS),
    )
)
