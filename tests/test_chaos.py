"""Chaos suite: the fault-tolerant executor under injected failure.

Covers every recovery path unit-wise (retry, quarantine, keep-going,
worker loss, watchdog timeout, resume) and ends with the acceptance
scenario: a 200-cell sweep under a seeded fault plan — worker kills,
transient faults, a corrupt cache write, a driver interrupt — resumed to
an aggregate byte-identical to a fault-free serial run.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    CampaignCache,
    CampaignSpec,
    RetryPolicy,
    RunReport,
    cell_key,
    run_campaign,
    run_cells,
)
from repro.campaign import executor as ex
from repro.campaign import faults
from repro.campaign.faults import PLAN_ENV, InjectedAbortError
from repro.campaign.retry import CellState, TransientError


@pytest.fixture(autouse=True)
def _clean_plan(monkeypatch):
    monkeypatch.delenv(PLAN_ENV, raising=False)
    faults.clear()
    yield
    faults.clear()


def spec_of(n_seeds: int, n_jobs: int = 10, name: str = "chaos") -> CampaignSpec:
    return CampaignSpec.from_dict({
        "name": name,
        "policies": ["easy.fcfs", "fcfs.nobackfill"],
        "workloads": [{"kind": "random", "n_jobs": n_jobs, "system_size": 8,
                       "seeds": list(range(1, n_seeds + 1))}],
    })


FAST = dict(backoff_base=0.001, backoff_cap=0.01)


# -- retry / quarantine / keep-going (inline) ---------------------------------

class TestRetry:
    def test_transient_failure_is_retried_to_success(self, monkeypatch):
        real = ex._run_cell_timed
        seen = []

        def flaky(cell, key=None, attempt=0, inline=True):
            seen.append(attempt)
            if attempt == 0:
                raise TransientError("worker hiccup")
            return real(cell, key, attempt, inline)

        monkeypatch.setattr(ex, "_run_cell_timed", flaky)
        report = RunReport()
        result = run_campaign(spec_of(1), jobs=1,
                              retry=RetryPolicy(**FAST), report=report)
        assert result.n_cells == 2
        assert report.retries == 2  # each cell hiccuped once
        assert not report.failures
        assert seen.count(0) == 2 and seen.count(1) == 2

    def test_identical_failure_twice_is_quarantined_early(self, monkeypatch):
        calls = []

        def same_boom(cell, key=None, attempt=0, inline=True):
            calls.append(attempt)
            raise ValueError("deterministic boom")

        monkeypatch.setattr(ex, "_run_cell_timed", same_boom)
        report = RunReport()
        with pytest.raises(RuntimeError, match="quarantined"):
            run_cells(spec_of(1).expand()[:1],
                      retry=RetryPolicy(max_attempts=10, **FAST),
                      report=report)
        # quarantined on the second identical signature, not after 10 tries
        assert len(calls) == 2
        assert report.quarantined == 1
        assert report.failures[0].kind == "error"
        assert report.failures[0].quarantined

    def test_varying_transient_failure_exhausts_attempts(self, monkeypatch):
        def changing(cell, key=None, attempt=0, inline=True):
            raise TransientError(f"flake #{attempt}")

        monkeypatch.setattr(ex, "_run_cell_timed", changing)
        report = RunReport()
        with pytest.raises(RuntimeError, match="campaign cells failed"):
            run_cells(spec_of(1).expand()[:1],
                      retry=RetryPolicy(max_attempts=3, **FAST),
                      report=report)
        assert report.failures[0].attempts == 3
        assert not report.failures[0].quarantined

    def test_keep_going_returns_partial_with_explicit_accounting(
            self, monkeypatch):
        real = ex._run_cell_timed

        def boom_one_policy(cell, key=None, attempt=0, inline=True):
            if cell.policy == "fcfs.nobackfill":
                raise ValueError("boom")
            return real(cell, key, attempt, inline)

        monkeypatch.setattr(ex, "_run_cell_timed", boom_one_policy)
        report = RunReport()
        result = run_campaign(spec_of(2), jobs=1, keep_going=True,
                              retry=RetryPolicy(**FAST), report=report)
        assert result.n_cells == 2          # the two healthy cells
        assert result.n_failed == 2
        doc = result.aggregate()
        assert doc["incomplete"]["n_failed"] == 2
        assert all(f["kind"] == "error" for f in doc["incomplete"]["failed"])
        assert result.stats.n_failed == 2
        assert "failed  : 2 cells" in result.stats.render()

    def test_backoff_schedule_is_capped_exponential(self):
        p = RetryPolicy(backoff_base=0.1, backoff_cap=0.35)
        assert [p.backoff(a) for a in (1, 2, 3, 4)] == [0.1, 0.2, 0.35, 0.35]

    def test_cell_state_quarantines_only_non_transient(self):
        p = RetryPolicy(max_attempts=5)
        st = CellState()
        assert st.classify(TransientError("x"), p) == "retry"
        assert st.classify(TransientError("x"), p) == "retry"  # same sig, transient
        st2 = CellState()
        assert st2.classify(ValueError("x"), p) == "retry"
        assert st2.classify(ValueError("x"), p) == "quarantine"


# -- worker loss and watchdog (pool) ------------------------------------------

class TestPoolRecovery:
    def test_worker_kill_is_survived_by_pool_rebuild(self, monkeypatch):
        spec = spec_of(6, name="kill-sweep")  # 12 cells
        cells = spec.expand()
        kill_key = cell_key(cells[5])
        monkeypatch.setenv(PLAN_ENV, json.dumps({
            "seed": 1,
            "faults": [{"site": "cell.run", "kind": "worker_kill",
                        "tokens": [kill_key]}],
        }))
        report = RunReport()
        result = run_campaign(spec, jobs=2, retry=RetryPolicy(**FAST),
                              report=report)
        faults.clear()
        assert result.n_cells == 12
        assert report.pool_rebuilds >= 1
        assert not report.failures
        assert "pool rebuilds" in result.stats.render()

    def test_watchdog_times_out_a_hung_cell_and_recovers(self, monkeypatch):
        spec = spec_of(4, name="hang-sweep")  # 8 cells
        cells = spec.expand()
        hung_key = cell_key(cells[3])
        monkeypatch.setenv(PLAN_ENV, json.dumps({
            "seed": 1,
            "faults": [{"site": "cell.run", "kind": "delay",
                        "tokens": [hung_key], "seconds": 30.0}],
        }))
        report = RunReport()
        result = run_campaign(
            spec, jobs=2,
            retry=RetryPolicy(timeout=1.0, **FAST), report=report,
        )
        faults.clear()
        # the delay fires only on attempt 0; the retry completes quickly
        assert result.n_cells == 8
        assert report.timeouts >= 1
        assert report.pool_rebuilds >= 1
        assert not report.failures

    def test_pool_and_inline_agree_under_no_faults(self, tmp_path):
        spec = spec_of(3)
        serial = run_campaign(spec, jobs=1)
        parallel = run_campaign(spec, jobs=2, retry=RetryPolicy(timeout=60.0))
        assert (json.dumps(serial.aggregate(), sort_keys=True)
                == json.dumps(parallel.aggregate(), sort_keys=True))


# -- resume (inline) ----------------------------------------------------------

class TestResume:
    def test_interrupted_run_resumes_exactly(self, tmp_path, monkeypatch):
        spec = spec_of(3, name="resume-sweep")  # 6 cells
        jdir = tmp_path / "journals"

        monkeypatch.setenv(PLAN_ENV, json.dumps({
            "seed": 1,
            "faults": [{"site": "driver.tick", "kind": "abort",
                        "tokens": ["3"]}],
        }))
        report1 = RunReport()
        with pytest.raises(InjectedAbortError):
            run_campaign(spec, jobs=1, journal_dir=jdir,
                         retry=RetryPolicy(**FAST), report=report1)

        monkeypatch.delenv(PLAN_ENV)
        faults.clear()
        report2 = RunReport()
        resumed = run_campaign(spec, jobs=1, journal_dir=jdir, resume=True,
                               retry=RetryPolicy(**FAST), report=report2)
        assert resumed.n_cells == 6
        assert report2.journal_cells == 3  # the interrupted run's completions
        assert "resume  : 3 cells replayed" in resumed.stats.render()

        clean = run_campaign(spec, jobs=1)
        assert (json.dumps(resumed.aggregate(), sort_keys=True)
                == json.dumps(clean.aggregate(), sort_keys=True))

    def test_run_campaign_resumes_from_the_cache_journal(
            self, tmp_path, monkeypatch):
        spec = spec_of(3, name="cache-journal")  # 6 cells
        cache = CampaignCache(tmp_path / "cache")

        monkeypatch.setenv(PLAN_ENV, json.dumps({
            "seed": 1,
            "faults": [{"site": "driver.tick", "kind": "abort",
                        "tokens": ["4"]}],
        }))
        with pytest.raises(InjectedAbortError):
            run_campaign(spec, cache=cache, retry=RetryPolicy(**FAST))
        assert list((cache.root / "journals").glob("*.jsonl"))

        monkeypatch.delenv(PLAN_ENV)
        faults.clear()
        resumed = run_campaign(spec, cache=cache, resume=True)
        assert resumed.n_cells == 6
        assert resumed.stats.journal_cells == 4
        assert resumed.stats.n_simulated == 2

    def test_cli_sweep_resume_roundtrip(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "cli-resume",
            "policies": ["easy.fcfs"],
            "workloads": [{"kind": "random", "n_jobs": 10, "system_size": 8,
                           "seeds": [1, 2, 3, 4]}],
        }))
        cache_dir = tmp_path / "cache"
        argv = ["sweep", str(spec_path), "--jobs", "1",
                "--cache-dir", str(cache_dir), "--quiet", "--stats"]

        monkeypatch.setenv(PLAN_ENV, json.dumps({
            "seed": 1,
            "faults": [{"site": "driver.tick", "kind": "abort",
                        "tokens": ["2"]}],
        }))
        with pytest.raises(InjectedAbortError):
            main(argv)
        capsys.readouterr()

        monkeypatch.delenv(PLAN_ENV)
        faults.clear()
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "4 cells" in out
        assert "recovery: 0 retries" in out
        assert "resume  : 2 cells replayed" in out


# -- the acceptance scenario --------------------------------------------------

class TestChaosAcceptance:
    def test_200_cell_sweep_survives_the_storm_byte_identically(
            self, tmp_path, monkeypatch):
        """ISSUE 9 acceptance: 2 worker kills, 5 transient faults, one
        corrupt cache write, a hung cell, and a driver interrupt — after
        ``--resume`` the aggregate is byte-identical to a fault-free
        ``--jobs 1`` run, with the recovery visible in ``--stats``."""
        spec = spec_of(100, n_jobs=12, name="chaos-200")
        cells = spec.expand()
        keys = [cell_key(c) for c in cells]
        assert len(cells) == 200

        # execution order is sorted by (workload, seed, i): the two kill
        # targets sit far apart so the pool breaks twice, not once; the
        # hung cell sits past the abort point AND past both kills, so its
        # delay deterministically fires (and meets the watchdog) in the
        # resume run, not in the shadow of the interrupt
        kills = [keys[20], keys[160]]
        transients = [keys[2], keys[30], keys[61], keys[95], keys[131]]
        hung = keys[189]
        corrupt = keys[8]

        storm = {
            "seed": 9,
            "faults": [
                {"site": "cell.run", "kind": "worker_kill", "tokens": kills},
                {"site": "cell.run", "kind": "transient",
                 "tokens": transients},
                {"site": "cell.run", "kind": "delay", "tokens": [hung],
                 "seconds": 30.0},
                {"site": "cache.put", "kind": "corrupt", "tokens": [corrupt]},
                {"site": "driver.tick", "kind": "abort", "tokens": ["120"]},
            ],
        }
        cache = CampaignCache(tmp_path / "cache")
        jdir = tmp_path / "journals"
        policy = RetryPolicy(max_attempts=3, timeout=2.0, **FAST)

        # -- the storm run: interrupted at 120 completions ------------------
        monkeypatch.setenv(PLAN_ENV, json.dumps(storm))
        report1 = RunReport()
        with pytest.raises(InjectedAbortError):
            run_campaign(spec, jobs=4, cache=cache, journal_dir=jdir,
                         retry=policy, report=report1)

        # -- resume under the same storm, minus the interrupt ---------------
        resume_plan = {"seed": 9, "faults": storm["faults"][:-1]}
        monkeypatch.setenv(PLAN_ENV, json.dumps(resume_plan))
        report2 = RunReport()
        resumed = run_campaign(spec, jobs=4, cache=cache, journal_dir=jdir,
                               resume=True, retry=policy, report=report2)
        monkeypatch.delenv(PLAN_ENV)
        faults.clear()

        reports = (report1, report2)

        assert resumed.n_cells == 200
        assert not any(r.failures for r in reports)
        assert sum(r.quarantined for r in reports) == 0
        assert report2.journal_cells >= 100  # the interrupt landed at ~120
        # the transient faults, at least
        assert sum(r.retries for r in reports) >= 5
        # two kills far apart (+ watchdog)
        assert sum(r.pool_rebuilds for r in reports) >= 2
        assert sum(r.timeouts for r in reports) >= 1  # the hung cell

        # recovery is visible in the --stats block
        render = resumed.stats.render()
        assert "recovery:" in render and "pool rebuilds" in render

        # the corrupt cache write is real — and survives as *damage*, not
        # as wrong data: verify flags it, nothing ever served it
        audit = cache.verify()
        assert any(k == corrupt for k, _ in audit.corrupt)

        # -- byte-identity against a fault-free serial run ------------------
        clean = run_campaign(spec, jobs=1,
                             cache=CampaignCache(tmp_path / "clean-cache"))
        assert (json.dumps(resumed.aggregate(), sort_keys=True)
                == json.dumps(clean.aggregate(), sort_keys=True))
