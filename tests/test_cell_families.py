"""Cells that differ only in their reference orders share one simulation.

Observers never influence scheduling, so one run that observes every
reference order of a cell family yields each member's record.  These
tests hold the shared path to the standalone one: the same records, the
same cache and manifest bytes inline and in a process pool, and per-cell
fault checks and retries for every member on both paths.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.artifacts.build import PaperConfig, build_artifacts, plan_build
from repro.campaign import (
    CampaignCache,
    RetryPolicy,
    RunReport,
    cell_key,
    run_cells,
)
from repro.campaign import faults
from repro.campaign.executor import family_key, run_cell, run_family
from repro.campaign.spec import CampaignCell, WorkloadSpec
from repro.core.engine import KillPolicy
from repro.experiments.runner import RunOptions
from repro.obs import counters

ALL_ORDERS = ("fairshare", "fcfs", "shortest-first")
FAST = dict(backoff_base=0.001, backoff_cap=0.01)


def _json(records):
    return [json.dumps(r, sort_keys=True) for r in records]


def _family(policy, options=RunOptions(), scale=0.02, seed=3):
    """One cell per order set: fairshare alone, plus fcfs, plus all."""
    wl = WorkloadSpec(kind="cplant", params=(("scale", scale),), seed=seed)
    return [
        CampaignCell(workload=wl, seed=seed, policy=policy,
                     options=replace(options, reference_orders=orders))
        for orders in (("fairshare",), ("fairshare", "fcfs"), ALL_ORDERS)
    ]


@pytest.fixture(autouse=True)
def _no_fault_plan(monkeypatch):
    monkeypatch.delenv(faults.PLAN_ENV, raising=False)
    faults.clear()
    yield
    faults.clear()


class TestSharedRecords:
    def test_paper_plan_families_match_standalone(self):
        """Every family of the paper build (the matrix's three-order cells
        and the suite's fairshare-only cells of the same policies)."""
        plan = plan_build(config=PaperConfig(scale=0.05))
        families = {}
        for cell in plan.cells:
            families.setdefault(family_key(cell), []).append(cell)
        shared = [f for f in families.values() if len(f) > 1]
        assert sorted(f[0].policy for f in shared) == [
            "cons.nomax", "cplant24.nomax.all"]
        for members in shared:
            got = [record for record, _ in run_family(members)]
            assert _json(got) == _json(run_cell(c) for c in members)

    @pytest.mark.parametrize("kill_policy", list(KillPolicy))
    def test_split_policy_wcl_estimates_each_kill_policy(self, kill_policy):
        members = _family("cplant72.72max.fair", RunOptions(
            estimate_mode="wcl", kill_policy=kill_policy))
        assert len({family_key(c) for c in members}) == 1
        got = [record for record, _ in run_family(members)]
        assert _json(got) == _json(run_cell(c) for c in members)

    def test_family_key_ignores_only_reference_orders(self):
        a, b, _ = _family("cons.nomax")
        assert family_key(a) == family_key(b)
        assert cell_key(a) != cell_key(b)
        other_policy = _family("cons.72max")[0]
        other_options = _family("cons.nomax", RunOptions(epsilon=2.0))[0]
        other_seed = _family("cons.nomax", seed=4)[0]
        for cell in (other_policy, other_options, other_seed):
            assert family_key(cell) != family_key(a)


def _count_runs(monkeypatch):
    from repro import api

    calls = []
    real = api.run

    def counting(request=None, **kw):
        calls.append(request.policy)
        return real(request, **kw)

    monkeypatch.setattr(api, "run", counting)
    return calls


class TestInlineSharing:
    def test_one_simulation_per_family(self, monkeypatch, tmp_path):
        cells = _family("cons.nomax") + _family("easy.fcfs")[:1]
        calls = _count_runs(monkeypatch)
        report = RunReport()
        with counters.collect() as c:
            results = run_cells(cells, cache=CampaignCache(tmp_path),
                                report=report)
        assert calls == ["cons.nomax", "easy.fcfs"]
        assert (report.n_simulated, report.n_cached) == (4, 0)
        assert report.n_shared == 2
        assert c.get("campaign.cell_shared") == 2
        assert _json(r.metrics for r in results) == _json(
            run_cell(cell) for cell in cells)
        assert report.as_dict()["n_shared"] == 2
        assert "shared  : 2 cells" in report.render()
        assert "slowest : " in report.render()

    def test_fault_on_sibling_fires_and_retry_serves_same_record(
            self, monkeypatch):
        cells = _family("cplant24.nomax.all")
        sibling = cell_key(cells[2])
        faults.install(faults.FaultPlan.from_dict({"faults": [
            {"site": "cell.run", "kind": "transient", "tokens": [sibling]},
        ]}))
        calls = _count_runs(monkeypatch)
        report = RunReport()
        results = run_cells(cells, retry=RetryPolicy(**FAST), report=report)
        assert report.retries == 1
        assert len(calls) == 1
        assert report.n_shared == 2
        assert _json(r.metrics for r in results) == _json(
            run_cell(cell) for cell in cells)

    def test_first_member_fault_delays_the_shared_run(self, monkeypatch):
        cells = _family("cplant24.nomax.all")
        faults.install(faults.FaultPlan.from_dict({"faults": [
            {"site": "cell.run", "kind": "transient",
             "tokens": [cell_key(cells[0])]},
        ]}))
        calls = _count_runs(monkeypatch)
        report = RunReport()
        run_cells(cells, retry=RetryPolicy(**FAST), report=report)
        assert report.retries == 1
        assert len(calls) == 1

    def test_quarantined_first_member_leaves_siblings_to_run(
            self, monkeypatch):
        cells = _family("cplant24.nomax.all")
        faults.install(faults.FaultPlan.from_dict({"faults": [
            {"site": "cell.run", "kind": "error", "times": 5,
             "tokens": [cell_key(cells[0])]},
        ]}))
        calls = _count_runs(monkeypatch)
        report = RunReport()
        results = run_cells(cells, retry=RetryPolicy(**FAST),
                            keep_going=True, report=report)
        assert [f.key for f in report.failures] == [cell_key(cells[0])]
        assert report.quarantined == 1
        # the two siblings share the simulation the first one never ran
        assert len(calls) == 1 and report.n_shared == 1
        assert _json(r.metrics for r in results) == _json(
            run_cell(cell) for cell in cells[1:])

    def test_one_family_runs_inline_under_jobs_2(self):
        report = RunReport()
        run_cells(_family("cons.nomax"), jobs=2, report=report)
        assert (report.n_shared, report.workers) == (2, 1)


def _plan(monkeypatch, *rules):
    """Install a fault plan that pool workers inherit too."""
    monkeypatch.setenv(faults.PLAN_ENV, json.dumps({"faults": list(rules)}))


class TestPoolSharing:
    """``jobs=2`` over more than one family: the family is the pool's task,
    blame stays with its first member, and siblings are served in the
    driver from the records their family's task returned."""

    def _cells(self):
        # two families (3 + 2 cells) and a lone cell
        return (_family("cplant24.nomax.all") + _family("cons.nomax")[:2]
                + _family("easy.fcfs")[:1])

    def _run(self, cells, **kw):
        report = RunReport()
        results = run_cells(cells, jobs=2, report=report,
                            keep_going=True, **kw)
        assert not report.failures
        assert report.workers == 2
        assert _json(r.metrics for r in results) == _json(
            run_cell(cell) for cell in cells)
        return report

    def test_two_families_and_a_lone_cell(self):
        report = self._run(self._cells())
        assert report.n_shared == 3
        assert (report.n_simulated, report.retries) == (6, 0)

    def test_worker_kill_charges_the_first_member_only(self, monkeypatch):
        cells = self._cells()
        # the sibling's one transient fault fires only while its attempt
        # count is 0: a kill charged to it too would have skipped it
        _plan(monkeypatch,
              {"site": "cell.run", "kind": "worker_kill",
               "tokens": [cell_key(cells[0])]},
              {"site": "cell.run", "kind": "transient",
               "tokens": [cell_key(cells[1])]})
        report = self._run(cells, retry=RetryPolicy(**FAST))
        assert report.pool_rebuilds == 1
        assert report.retries == 1
        assert report.n_shared == 3

    def test_timeout_charges_the_first_member_only(self, monkeypatch):
        cells = self._cells()
        _plan(monkeypatch, {"site": "cell.run", "kind": "delay",
                            "tokens": [cell_key(cells[0])], "seconds": 60.0})
        report = self._run(cells, retry=RetryPolicy(timeout=2.0, **FAST))
        assert (report.timeouts, report.retries) == (1, 1)
        # the siblings' next task simulated the timed-out member too
        assert report.n_shared == 3

    def test_fault_on_sibling_retries_its_held_record(self, monkeypatch):
        cells = self._cells()
        _plan(monkeypatch, {"site": "cell.run", "kind": "transient",
                            "tokens": [cell_key(cells[2])]})
        report = self._run(cells, retry=RetryPolicy(**FAST))
        assert report.retries == 1
        # a sibling that simulated again would own its run, not share it
        assert report.n_shared == 3


class TestBuildBytes:
    def test_inline_build_matches_pool_build(self, tmp_path):
        """A cold inline build and a cold ``--jobs 2`` build share the
        same runs and write the same cache records and manifest."""
        cfg = PaperConfig(scale=0.05)
        builds = {}
        for jobs in (1, 2):
            root = tmp_path / f"jobs{jobs}"
            res = build_artifacts(config=cfg, out_dir=root / "out",
                                  jobs=jobs, cache=CampaignCache(root / "cache"))
            builds[jobs] = res
        assert builds[1].stats.n_shared == 2
        assert builds[2].stats.n_shared == 2
        assert (builds[1].manifest_path.read_bytes()
                == builds[2].manifest_path.read_bytes())

        def records(root):
            cache = root / "cache"
            return {
                p.relative_to(cache): p.read_bytes()
                for p in cache.rglob("*.json")
                if "journals" not in p.relative_to(cache).parts
            }

        one, two = records(tmp_path / "jobs1"), records(tmp_path / "jobs2")
        assert len(one) == 17 + 6
        assert one == two
