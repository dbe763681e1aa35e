"""Tests for the experiment harness: runner, tables, figures, reports."""

import numpy as np
import pytest

from repro.artifacts import BASELINE, ArtifactInputs, get_artifact
from repro.experiments import figures as F
from repro.experiments.config import BenchConfig, bench_workload
from repro.experiments.report import bar_chart, binned_medians, log_density, series_table
from repro import api
from repro.experiments.runner import run_policy
from repro.experiments.tables import (
    render_table1,
    render_table2,
    table1_job_counts,
    table2_proc_hours,
)
from repro.sched.registry import MINOR_POLICIES, PAPER_POLICIES
from repro.workload.categories import N_WIDTH
from repro.workload.generator import GeneratorConfig, generate_cplant_workload


@pytest.fixture(scope="module")
def tiny_trace():
    return generate_cplant_workload(
        GeneratorConfig(scale=0.03, weeks=4), seed=5
    )


@pytest.fixture(scope="module")
def suite(tiny_trace):
    return api.compare(PAPER_POLICIES, workload=tiny_trace)


class TestRunner:
    def test_policy_run_fields(self, tiny_trace):
        run = run_policy(tiny_trace, "cplant24.nomax.all")
        assert run.policy == "cplant24.nomax.all"
        assert run.summary.n_jobs == len(tiny_trace)
        assert 0.0 <= run.percent_unfair <= 1.0
        assert run.average_miss_time >= 0.0
        assert 0.0 <= run.loss_of_capacity < 1.0
        assert run.miss_by_width.shape == (N_WIDTH,)
        assert run.turnaround_by_width.shape == (N_WIDTH,)

    def test_runtime_limit_policies_report_per_trace_job(self, tiny_trace):
        run = run_policy(tiny_trace, "cplant24.72max.all")
        # chunks collapsed: metric population equals the trace
        assert run.summary.n_jobs == len(tiny_trace)
        assert len(run.metric_jobs) == len(tiny_trace)
        assert set(run.fst) == {j.id for j in run.metric_jobs}
        # the scheduler saw at least as many jobs (chunks)
        assert len(run.result.jobs) >= len(tiny_trace)

    def test_suite_runs_all(self, suite):
        assert set(suite) == set(PAPER_POLICIES)


class TestTables:
    def test_table1_exact_at_any_scale(self, tiny_trace):
        cmp = table1_job_counts(tiny_trace)
        assert cmp.measured.sum() == len(tiny_trace)
        assert cmp.l1_rel_error < 0.35  # small scale = coarse sampling

    def test_table2_calibrated(self, tiny_trace):
        cmp = table2_proc_hours(tiny_trace)
        assert cmp.l1_rel_error < 0.5

    def test_renders(self, tiny_trace):
        t1 = render_table1(table1_job_counts(tiny_trace))
        t2 = render_table2(table2_proc_hours(tiny_trace))
        assert "Table 1" in t1 and "513+" in t1
        assert "Table 2" in t2 and "proc-hours" in t2


class TestFigures:
    def test_fig03(self, suite):
        assert len(suite[BASELINE].weekly) >= 4
        txt = get_artifact("fig03").build_text(ArtifactInputs(suite))
        assert "Figure 3" in txt

    def test_fig04_to_07_render(self, tiny_trace):
        for fn, render in [
            (F.fig04_runtime_vs_nodes, F.render_fig04),
            (F.fig05_estimates, F.render_fig05),
            (F.fig06_overestimation_vs_runtime, F.render_fig06),
            (F.fig07_overestimation_vs_nodes, F.render_fig07),
        ]:
            data = fn(tiny_trace)
            txt = render(data)
            assert "Figure" in txt

    def test_minor_figures_cover_minor_policies(self, suite):
        # the nine-policy suite goes in whole; each figure plots its set
        for fig in ("fig08", "fig09", "fig11", "fig13"):
            art = get_artifact(fig)
            assert art.policies == MINOR_POLICIES
            text = art.build_text(ArtifactInputs(suite))
            assert _plotted(text) == set(MINOR_POLICIES)

    def test_all_policy_figures_cover_nine(self, suite):
        for fig in ("fig14", "fig15", "fig17", "fig19"):
            art = get_artifact(fig)
            assert art.policies == PAPER_POLICIES
            text = art.build_text(ArtifactInputs(suite))
            assert _plotted(text) == set(PAPER_POLICIES)

    def test_width_figures_shapes(self, suite):
        for fig in ("fig10", "fig12", "fig16", "fig18"):
            data = get_artifact(fig).data(ArtifactInputs(suite))
            for arr in data.values():
                assert arr.shape == (N_WIDTH,)

    def test_all_renders_nonempty(self, suite):
        for n in range(8, 20):
            txt = get_artifact(f"fig{n:02d}").build_text(ArtifactInputs(suite))
            assert txt.startswith(f"Figure {n}:")
            assert len(txt.splitlines()) >= 3

    def test_missing_policy_raises(self, tiny_trace):
        partial = api.compare(MINOR_POLICIES[:2], workload=tiny_trace)
        with pytest.raises(KeyError, match="missing"):
            get_artifact("fig08").build_text(ArtifactInputs(partial))


def _plotted(text):
    """Policy keys that label a bar of a rendered bar chart."""
    return {ln.split()[0] for ln in text.splitlines()[1:] if ln.strip()}


class TestReportHelpers:
    def test_bar_chart(self):
        txt = bar_chart("T", {"a": 1.0, "b": 2.0}, percent=True)
        assert "100.00%" in txt and "200.00%" in txt
        assert txt.count("#") > 0

    def test_bar_chart_empty(self):
        assert "(no data)" in bar_chart("T", {})

    def test_series_table(self):
        txt = series_table("T", ["r1", "r2"],
                           {"c": np.array([1.0, 2.0])})
        assert "r1" in txt and "r2" in txt

    def test_log_density_handles_empty(self):
        txt = log_density("T", np.array([]), np.array([]), "x", "y")
        assert "no positive data" in txt

    def test_binned_medians_trend(self):
        x = np.logspace(0, 4, 500)
        y = 1000.0 / x
        out = binned_medians(x, y, bins=5)
        med = out["median"]
        assert med[0] > med[-1]


class TestBenchConfig:
    def test_from_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_FULL", raising=False)
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        cfg = BenchConfig.from_env()
        assert cfg.scale == 0.2

    def test_full_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_FULL", "1")
        assert BenchConfig.from_env().scale == 1.0

    def test_scale_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_FULL", raising=False)
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.05")
        assert BenchConfig.from_env().scale == 0.05

    def test_bench_workload_builds(self):
        wl = bench_workload(BenchConfig(scale=0.02, seed=1))
        assert len(wl) > 100
