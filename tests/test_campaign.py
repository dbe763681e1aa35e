"""Campaign subsystem: grid expansion, caching, parallel determinism,
and aggregation statistics."""

from __future__ import annotations

import json
import math

import pytest

from repro.campaign import (
    CampaignCache,
    CampaignSpec,
    WorkloadSpec,
    aggregate_cells,
    aggregate_rows,
    cell_key,
    flatten_metrics,
    run_campaign,
    run_cell,
    t_critical_95,
)
from repro.campaign.spec import _expand_sweep
from repro.experiments.runner import RunOptions
from repro.sched.registry import validate_overrides
from repro.workload.generator import replication_seeds


SMALL_SPEC = {
    "name": "test-sweep",
    "policies": ["easy.fcfs", "fcfs.nobackfill"],
    "workloads": [
        {"kind": "random", "n_jobs": 50, "system_size": 16, "load": 1.0,
         "seeds": [1, 2]},
    ],
}


def small_spec(**extra) -> CampaignSpec:
    return CampaignSpec.from_dict({**SMALL_SPEC, **extra})


# -- spec / grid expansion ----------------------------------------------------

class TestSpec:
    def test_expansion_counts_policies_x_seeds(self):
        cells = small_spec().expand()
        assert len(cells) == 4  # 2 policies x 2 seeds
        assert len({json.dumps(c.identity(), sort_keys=True) for c in cells}) == 4

    def test_expansion_with_override_variants(self):
        spec = small_spec(
            policies=["cplant24.nomax.all"],
            overrides=[{}, {"starvation_threshold": 7200.0}],
        )
        cells = spec.expand()
        assert len(cells) == 4  # 1 policy x 2 seeds x 2 variants
        variants = {c.options.scheduler_overrides for c in cells}
        assert ((), (("starvation_threshold", 7200.0),)) == tuple(sorted(variants))

    def test_sweep_shorthand_cartesian(self):
        combos = _expand_sweep({"a": [1, 2], "b": [10]})
        assert combos == [{"a": 1, "b": 10}, {"a": 2, "b": 10}]

    def test_sweep_composes_with_overrides(self):
        spec = small_spec(
            policies=["cplant24.nomax.all"],
            sweep={"starvation_threshold": [3600.0, 7200.0]},
        )
        assert len(spec.variants()) == 2
        assert len(spec.expand()) == 4

    def test_replications_spawn_independent_seeds(self):
        spec = small_spec(
            workloads=[{"kind": "random", "n_jobs": 30, "system_size": 16,
                        "seed": 9}],
            replications=3,
        )
        seeds = {c.seed for c in spec.expand()}
        assert len(seeds) == 3
        assert seeds == set(replication_seeds(9, 3))

    def test_unknown_policy_rejected(self):
        with pytest.raises(KeyError):
            small_spec(policies=["bogus"]).expand()

    def test_bad_override_rejected_with_policy_name(self):
        spec = small_spec(policies=["easy.fcfs"],
                          overrides=[{"no_such_param": 1}])
        with pytest.raises(ValueError, match="easy.fcfs"):
            spec.expand()

    def test_validate_overrides_accepts_real_parameter(self):
        validate_overrides("cplant24.nomax.all", {"starvation_threshold": 60.0})

    def test_typoed_workload_param_rejected_before_running(self):
        spec = small_spec(workloads=[{"kind": "cplant", "scal": 0.05}])
        with pytest.raises(ValueError, match="cplant workload rejects"):
            spec.expand()
        spec = small_spec(workloads=[{"kind": "random", "n_jobz": 10}])
        with pytest.raises(ValueError, match="random workload rejects"):
            spec.expand()

    def test_missing_swf_trace_rejected(self):
        spec = small_spec(workloads=[{"kind": "swf", "path": "/nope.swf"}])
        with pytest.raises(ValueError, match="not found"):
            spec.expand()

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="replication"):
            CampaignSpec.from_dict({**SMALL_SPEC, "replication": 5})

    def test_duplicate_seeds_deduplicated(self):
        spec = small_spec(workloads=[{"kind": "random", "n_jobs": 10,
                                      "system_size": 8, "seeds": [1, 1, 2]}])
        assert len(spec.expand()) == 4  # 2 policies x 2 unique seeds

    def test_non_scalar_workload_param_rejected(self):
        with pytest.raises(ValueError, match="scalars"):
            small_spec(workloads=[{"kind": "cplant", "scale": [0.05, 0.1]}])

    def test_bad_engine_options_rejected_at_construction(self):
        with pytest.raises(ValueError, match="estimate_mode"):
            small_spec(estimate_mode="prefect")
        with pytest.raises(ValueError, match="IF_NEEDED"):
            small_spec(kill_policy="if-needed")

    def test_editing_swf_trace_changes_identity(self, tmp_path, small_workload):
        import os
        import time as _time

        from repro.workload.swf import write_swf

        path = tmp_path / "t.swf"
        write_swf(small_workload, path)
        w = WorkloadSpec.from_dict({"kind": "swf", "path": str(path)})
        before = w.family_identity()["sha256"]
        with open(path, "a") as fh:
            fh.write("; edited\n")
        os.utime(path, ns=(_time.time_ns(), _time.time_ns()))
        assert w.family_identity()["sha256"] != before

    def test_shared_options_carry_no_scheduler_overrides(self):
        base = small_spec()
        with pytest.raises(ValueError, match="per variant"):
            CampaignSpec(
                name="x", policies=base.policies, workloads=base.workloads,
                options=RunOptions(scheduler_overrides={"decay": 0.5}),
            )

    def test_dict_round_trip(self):
        spec = small_spec(replications=2, epsilon=2.0, kill_policy="never",
                          estimate_mode="wcl", validate_engine=True)
        assert spec.replications == 2
        assert spec.options == RunOptions(
            estimate_mode="wcl", epsilon=2.0, kill_policy="NEVER", validate=True
        )

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SMALL_SPEC))
        spec = CampaignSpec.from_json(path)
        assert spec.name == "test-sweep"
        assert len(spec.expand()) == 4

    def test_swf_workload_identity_is_content_hash(self, tmp_path, small_workload):
        from repro.workload.swf import write_swf

        path = tmp_path / "t.swf"
        write_swf(small_workload, path)
        w = WorkloadSpec.from_dict({"kind": "swf", "path": str(path)})
        ident = w.family_identity()
        assert len(ident["sha256"]) == 64
        assert w.effective_seeds(5) == (None,)

    def test_run_options_canonicalize(self):
        a = RunOptions(kill_policy="if_needed",
                       scheduler_overrides=(("b", 2), ("a", 1)))
        b = RunOptions(scheduler_overrides=(("a", 1), ("b", 2)))
        assert a == b
        assert a.identity()["kill_policy"] == "IF_NEEDED"


# -- cache --------------------------------------------------------------------

class TestCache:
    def test_round_trip_and_miss(self, tmp_path):
        cell = small_spec().expand()[0]
        key = cell_key(cell)
        cache = CampaignCache(tmp_path)
        assert cache.get(key) is None
        cache.put(key, cell.identity(), {"x": 1.5})
        assert cache.get(key) == {"x": 1.5}
        assert key in cache
        assert len(cache) == 1

    def test_key_is_stable_and_seed_sensitive(self):
        cells = small_spec().expand()
        assert cell_key(cells[0]) == cell_key(cells[0])
        keys = {cell_key(c) for c in cells}
        assert len(keys) == len(cells)

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cell = small_spec().expand()[0]
        key = cell_key(cell)
        cache = CampaignCache(tmp_path)
        path = cache.put(key, cell.identity(), {"x": 1.0})
        path.write_text("{not json")
        assert cache.get(key) is None

    def test_clear(self, tmp_path):
        cell = small_spec().expand()[0]
        cache = CampaignCache(tmp_path)
        cache.put(cell_key(cell), cell.identity(), {"x": 1.0})
        assert cache.clear() == 1
        assert len(cache) == 0


# -- executor -----------------------------------------------------------------

class TestExecutor:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        spec = small_spec()
        cache = CampaignCache(tmp_path)
        first = run_campaign(spec, jobs=1, cache=cache)
        assert (first.n_simulated, first.n_cached) == (4, 0)
        second = run_campaign(spec, jobs=1, cache=cache)
        assert (second.n_simulated, second.n_cached) == (0, 4)
        assert (json.dumps(first.aggregate(), sort_keys=True)
                == json.dumps(second.aggregate(), sort_keys=True))

    def test_parallel_matches_serial_byte_identically(self, tmp_path):
        # 2 policies x 4 seeds = 8 cells (the acceptance-criteria scale)
        spec = small_spec(workloads=[
            {"kind": "random", "n_jobs": 50, "system_size": 16, "load": 1.0,
             "seeds": [1, 2, 3, 4]},
        ])
        assert len(spec.expand()) == 8
        serial = run_campaign(spec, jobs=1, cache=None)
        parallel = run_campaign(spec, jobs=4, cache=None)
        assert (json.dumps(serial.aggregate(), sort_keys=True)
                == json.dumps(parallel.aggregate(), sort_keys=True))

    def test_force_resimulates_but_refreshes_cache(self, tmp_path):
        spec = small_spec()
        cache = CampaignCache(tmp_path)
        run_campaign(spec, jobs=1, cache=cache)
        forced = run_campaign(spec, jobs=1, cache=cache, force=True)
        assert forced.n_simulated == 4

    def test_progress_callback_sees_every_cell(self):
        events = []
        run_campaign(
            small_spec(), jobs=1, cache=None,
            progress=lambda done, total, cell, source, elapsed: events.append(
                (done, total, source, elapsed)),
        )
        assert len(events) == 4
        assert events[-1][:2] == (4, 4)
        assert all(src == "run" for _, _, src, _ in events)
        assert all(elapsed > 0 for _, _, _, elapsed in events)

    def test_failing_cell_names_culprit_and_keeps_completed_cells(
            self, tmp_path, monkeypatch):
        from repro.campaign import executor as ex

        real = ex._run_task

        def flaky(cells, key, attempt, inline, held=None):
            if cells[0].policy == "fcfs.nobackfill":
                raise RuntimeError("boom")
            return real(cells, key, attempt, inline, held)

        monkeypatch.setattr(ex, "_run_task", flaky)
        spec = small_spec(workloads=[{"kind": "random", "n_jobs": 20,
                                      "system_size": 16, "seeds": [1]}])
        cache = CampaignCache(tmp_path / "cache")
        with pytest.raises(RuntimeError,
                           match=r"1/2 campaign cells failed.*fcfs\.nobackfill"):
            run_campaign(spec, jobs=1, cache=cache)
        assert len(cache) == 1  # the healthy cell's metrics were kept

    def test_failure_carries_full_failure_list(self, tmp_path, monkeypatch):
        from repro.campaign import executor as ex
        from repro.campaign.retry import CellFailure, RetryPolicy

        def always_boom(cells, key, attempt, inline, held=None):
            raise ValueError(f"boom for {cells[0].policy}")

        monkeypatch.setattr(ex, "_run_task", always_boom)
        spec = small_spec(workloads=[{"kind": "random", "n_jobs": 20,
                                      "system_size": 16, "seeds": [1]}])
        with pytest.raises(RuntimeError) as ei:
            run_campaign(spec, jobs=1, cache=None,
                         retry=RetryPolicy(max_attempts=1))
        failures = ei.value.failures
        assert len(failures) == 2
        assert all(isinstance(f, CellFailure) for f in failures)
        assert {f.error for f in failures} == {
            "ValueError: boom for easy.fcfs",
            "ValueError: boom for fcfs.nobackfill",
        }
        assert isinstance(ei.value.__cause__, ValueError)

    def test_raising_progress_callback_does_not_abort(self, tmp_path):
        def bad_progress(done, total, cell, source, elapsed):
            raise BrokenPipeError("stdout went away")

        cache = CampaignCache(tmp_path / "cache")
        res = run_campaign(small_spec(), jobs=1, cache=cache,
                           progress=bad_progress)
        assert res.n_simulated == 4
        assert len(cache) == 4  # every cell still completed and cached

    def test_worker_workload_memo_tracks_swf_edits(self, tmp_path):
        import os
        import time as _time

        from repro.campaign.executor import memo_workload
        from repro.workload.generator import random_workload
        from repro.workload.swf import write_swf

        path = tmp_path / "t.swf"
        write_swf(random_workload(20, system_size=16, seed=1), path)
        spec = small_spec(workloads=[{"kind": "swf", "path": str(path)}])
        cell = spec.expand()[0]
        assert len(memo_workload(cell.workload, cell.seed)) == 20
        write_swf(random_workload(40, system_size=16, seed=2), path)
        os.utime(path, ns=(_time.time_ns(), _time.time_ns()))
        cell = spec.expand()[0]
        assert len(memo_workload(cell.workload, cell.seed)) == 40

    def test_run_cell_matches_serial_runner(self):
        from repro.experiments.export import policy_run_record
        from repro.experiments.runner import run_policy
        from repro.workload.generator import random_workload

        cell = small_spec().expand()[0]
        record = run_cell(cell)
        wl = random_workload(n_jobs=50, system_size=16, load=1.0,
                             seed=cell.seed)
        direct = policy_run_record(run_policy(wl, cell.policy))
        assert record == direct


# -- aggregation --------------------------------------------------------------

class TestAggregate:
    def test_t_critical_values(self):
        assert t_critical_95(2) == pytest.approx(4.303)
        assert t_critical_95(1000) == pytest.approx(1.960)
        with pytest.raises(ValueError):
            t_critical_95(0)

    def test_flatten_metrics(self):
        flat = flatten_metrics({
            "policy": "x",                      # string: dropped
            "loss_of_capacity": 0.25,
            "summary": {"avg_wait": 10.0},
            "miss_by_width": [1.0, 2.0],
            "width_labels": ["a", "b"],         # string list: dropped
        })
        assert flat == {
            "loss_of_capacity": 0.25,
            "summary.avg_wait": 10.0,
            "miss_by_width.0": 1.0,
            "miss_by_width.1": 2.0,
        }

    def test_ci_math_against_hand_computation(self):
        from repro.campaign.executor import CellResult

        spec = small_spec(
            policies=["easy.fcfs"],
            workloads=[{"kind": "random", "n_jobs": 10, "system_size": 16,
                        "seeds": [1, 2, 3]}],
        )
        cells = spec.expand()
        values = [1.0, 2.0, 3.0]
        results = [
            CellResult(cell=c, key=f"k{i}", metrics={"m": values[i]},
                       cached=False)
            for i, c in enumerate(cells)
        ]
        doc = aggregate_cells(results, campaign="ci")
        st = doc["groups"][0]["metrics"]["m"]
        assert st["n"] == 3
        assert st["mean"] == pytest.approx(2.0)
        assert st["std"] == pytest.approx(1.0)
        assert st["ci95"] == pytest.approx(4.303 / math.sqrt(3))
        assert (st["min"], st["max"]) == (1.0, 3.0)

    def test_single_cell_group_has_zero_ci(self):
        res = run_campaign(
            small_spec(workloads=[{"kind": "random", "n_jobs": 30,
                                   "system_size": 16, "seeds": [1]}]),
            jobs=1, cache=None,
        )
        doc = res.aggregate()
        st = doc["groups"][0]["metrics"]["summary.avg_turnaround"]
        assert st["n"] == 1
        assert st["std"] == 0.0 and st["ci95"] == 0.0

    def test_groups_collapse_seeds_not_policies(self):
        res = run_campaign(small_spec(), jobs=1, cache=None)
        doc = res.aggregate()
        assert doc["n_cells"] == 4
        assert doc["n_groups"] == 2
        for g in doc["groups"]:
            assert g["n_cells"] == 2
            assert sorted(g["seeds"]) == [1, 2]

    def test_aggregate_rows_long_format(self):
        res = run_campaign(small_spec(), jobs=1, cache=None)
        rows = aggregate_rows(res.aggregate())
        assert {r["policy"] for r in rows} == {"easy.fcfs", "fcfs.nobackfill"}
        sample = rows[0]
        assert set(sample) == {"campaign", "workload", "policy", "overrides",
                               "metric", "n", "mean", "std", "ci95", "min",
                               "max"}


# -- CLI ----------------------------------------------------------------------

class TestSweepCli:
    def test_sweep_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SMALL_SPEC))
        out_json = tmp_path / "agg.json"
        out_csv = tmp_path / "agg.csv"
        rc = main(["sweep", str(spec_path), "--jobs", "1",
                   "--cache-dir", str(tmp_path / "cache"),
                   "--json", str(out_json), "--csv", str(out_csv)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "4 cells (4 simulated, 0 cached)" in out
        doc = json.loads(out_json.read_text())
        assert doc["n_groups"] == 2
        assert out_csv.read_text().startswith("campaign,")

        # re-run: pure cache hits, byte-identical aggregate document
        before = out_json.read_bytes()
        rc = main(["sweep", str(spec_path), "--jobs", "1",
                   "--cache-dir", str(tmp_path / "cache"),
                   "--json", str(out_json)])
        assert rc == 0
        assert "(0 simulated, 4 cached)" in capsys.readouterr().out
        assert out_json.read_bytes() == before

    def test_sweep_no_cache_writes_nothing(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**SMALL_SPEC, "workloads": [
            {"kind": "random", "n_jobs": 20, "system_size": 16, "seeds": [1]},
        ]}))
        rc = main(["sweep", str(spec_path), "--no-cache", "--quiet",
                   "--cache-dir", str(tmp_path / "cache")])
        assert rc == 0
        assert not (tmp_path / "cache").exists()
