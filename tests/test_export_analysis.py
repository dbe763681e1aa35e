"""Tests for results export and workload analysis."""

import json

import pytest

from repro import api
from repro.cli import main
from repro.experiments.export import (
    export_per_job_csv,
    export_suite_csv,
    export_suite_json,
    policy_run_record,
)
from repro.workload.analysis import (
    analyze,
    arrival_pattern,
    estimate_quality,
    render_analysis,
    user_activity,
)
from repro.workload.generator import GeneratorConfig, generate_cplant_workload
from repro.workload.model import Workload
from tests.conftest import make_job


@pytest.fixture(scope="module")
def tiny_suite():
    wl = generate_cplant_workload(GeneratorConfig(scale=0.02, weeks=4), seed=2)
    return wl, api.compare(["cplant24.nomax.all", "cons.nomax"], workload=wl)


class TestExport:
    def test_record_is_json_serializable(self, tiny_suite):
        _, suite = tiny_suite
        rec = policy_run_record(suite["cons.nomax"])
        text = json.dumps(rec)
        assert "fairness" in text

    def test_suite_json_roundtrip(self, tiny_suite, tmp_path):
        _, suite = tiny_suite
        path = tmp_path / "suite.json"
        export_suite_json(suite, path)
        back = json.loads(path.read_text())
        assert set(back) == set(suite)
        rec = back["cplant24.nomax.all"]
        assert rec["summary"]["n_jobs"] == suite["cplant24.nomax.all"].summary.n_jobs
        assert len(rec["miss_by_width"]) == 11

    def test_suite_csv(self, tiny_suite, tmp_path):
        _, suite = tiny_suite
        path = tmp_path / "suite.csv"
        export_suite_csv(suite, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(suite)
        assert lines[0].startswith("policy,")

    def test_per_job_csv(self, tiny_suite, tmp_path):
        wl, suite = tiny_suite
        path = tmp_path / "jobs.csv"
        export_per_job_csv(suite["cons.nomax"], path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(wl)
        header = lines[0].split(",")
        assert "fst" in header and "miss_time" in header

    def test_cli_export(self, tmp_path, capsys):
        rc = main([
            "export", "--scale", "0.02", "--seed", "1",
            "--policies", "cplant24.nomax.all",
            "--json", str(tmp_path / "s.json"),
            "--csv", str(tmp_path / "s.csv"),
        ])
        assert rc == 0
        assert (tmp_path / "s.json").exists()
        assert (tmp_path / "s.csv").exists()

    def test_cli_export_requires_target(self, capsys):
        rc = main(["export", "--scale", "0.02", "--seed", "1",
                   "--policies", "cplant24.nomax.all"])
        assert rc == 1


class TestAnalysis:
    def test_estimate_quality_fractions_sum(self):
        wl = generate_cplant_workload(GeneratorConfig(scale=0.05), seed=5)
        est = estimate_quality(wl)
        total = est.exact_fraction + est.over_fraction + est.under_fraction
        assert total == pytest.approx(1.0, abs=1e-9)
        assert est.median_factor_short > est.median_factor_long

    def test_user_activity_zipf(self):
        wl = generate_cplant_workload(GeneratorConfig(scale=0.05), seed=5)
        usr = user_activity(wl)
        assert usr.n_users > 10
        assert 0.0 < usr.gini_work <= 1.0
        assert usr.top5_work_share > 5 / usr.n_users  # concentrated

    def test_arrival_pattern_work_hours_bias(self):
        wl = generate_cplant_workload(GeneratorConfig(scale=0.05), seed=5)
        arr = arrival_pattern(wl)
        assert arr.work_hours_fraction > 10 / 24  # above uniform
        assert 0 <= arr.busiest_hour < 24

    def test_empty_workload(self):
        wl = Workload([], system_size=8)
        assert arrival_pattern(wl).jobs_per_day == 0.0
        assert user_activity(wl).n_users == 0

    def test_analyze_and_render(self):
        wl = Workload([make_job(id=1, submit=9 * 3600.0, nodes=2,
                                runtime=100.0, wcl=200.0)], system_size=8)
        out = analyze(wl)
        assert set(out) == {"describe", "estimates", "arrivals", "users"}
        txt = render_analysis(wl)
        assert "estimate quality" in txt
        assert "user population" in txt

    def test_cli_analyze(self, capsys):
        rc = main(["analyze", "--scale", "0.02", "--seed", "1"])
        assert rc == 0
        assert "arrival pattern" in capsys.readouterr().out
