"""Telemetry spine: counters, traces, run stats, logging — and above all
the invariant that observation never changes simulation results."""

from __future__ import annotations

import json
import logging

import pytest

from repro.campaign import (
    CacheStats,
    CampaignCache,
    CampaignSpec,
    cell_key,
    run_campaign,
)
from repro.experiments.runner import run_policy
from repro.obs import counters as counters_mod
from repro.obs.counters import CATALOG, CATALOG_NAMES, Counters, collect, render
from repro.obs.log import get_logger, setup_logging
from repro.obs.stats import (
    ProgressMeter,
    format_eta,
    percentile,
    timing_summary,
    utilization,
)
from repro.obs.trace import (
    TRACE_SCHEMA,
    TraceObserver,
    read_trace,
    render_summary,
    summarize_records,
)
from repro.workload.generator import random_workload


@pytest.fixture
def tiny_workload():
    """60 jobs on 16 nodes; enough queueing to exercise every hot path."""
    return random_workload(60, system_size=16, seed=5, load=1.2)


SWEEP_SPEC = {
    "name": "obs-sweep",
    "policies": ["easy.fcfs"],
    "workloads": [
        {"kind": "random", "n_jobs": 40, "system_size": 16, "load": 1.0,
         "seeds": [1, 2]},
    ],
}


# -- counters: registry mechanics ---------------------------------------------

class TestCounters:
    def test_disabled_by_default(self):
        assert counters_mod.ACTIVE is None

    def test_hit_get_and_batch_increments(self):
        c = Counters()
        c.hit("a.b")
        c.hit("a.b")
        c.hit("a.c", 5)
        assert c.get("a.b") == 2
        assert c.get("a.c") == 5
        assert c.get("never.hit") == 0

    def test_as_dict_is_sorted_and_json_safe(self):
        c = Counters()
        for name in ("z.last", "a.first", "m.mid"):
            c.hit(name)
        assert list(c.as_dict()) == ["a.first", "m.mid", "z.last"]
        json.dumps(c.as_dict())

    def test_merge_and_clear(self):
        a, b = Counters(), Counters()
        a.hit("x", 2)
        b.hit("x", 3)
        b.hit("y")
        a.merge(b)
        assert a.as_dict() == {"x": 5, "y": 1}
        a.clear()
        assert not a and len(a) == 0

    def test_collect_installs_and_restores(self):
        assert counters_mod.ACTIVE is None
        with collect() as outer:
            assert counters_mod.ACTIVE is outer
            with collect() as inner:
                assert counters_mod.ACTIVE is inner
                assert inner is not outer
            assert counters_mod.ACTIVE is outer
        assert counters_mod.ACTIVE is None

    def test_collect_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with collect():
                raise RuntimeError("boom")
        assert counters_mod.ACTIVE is None

    def test_render_alignment_and_empty(self):
        c = Counters()
        assert "(no counters recorded)" in render(c)
        c.hit("short", 1)
        c.hit("a.much.longer.name", 42)
        lines = render(c).splitlines()
        assert len(lines) == 2
        assert len({line.index(":") for line in lines}) == 1  # aligned

    def test_catalog_names_are_unique_and_dotted(self):
        assert len(set(CATALOG_NAMES)) == len(CATALOG)
        assert all("." in name for name in CATALOG_NAMES)


# -- counters: correctness on a real simulation -------------------------------

class TestCounterCorrectness:
    def test_counts_match_first_principles(self, tiny_workload):
        with collect() as c:
            run = run_policy(tiny_workload, "cons.nomax")
        # every job starts exactly once, through the instrumented seam
        assert c.get("sched.start") == len(run.result.jobs) == 60
        # every engine event is counted
        assert c.get("engine.events") == run.result.events_processed
        # each arrival/completion triggers a pass; no jobs were killed
        assert c.get("engine.schedule_pass") > 0
        assert c.get("engine.wcl_kill") == 0
        assert c.get("engine.chunk_resubmit") == 0
        # conservative reserves every queued job through the fast path
        assert c.get("profile.reserve_fitted") > 0
        # only catalog names fire from the instrumented sites
        assert set(c.as_dict()) <= set(CATALOG_NAMES)

    def test_chunk_chains_are_counted(self, tiny_workload):
        from repro.workload.transforms import split_by_runtime_limit

        chunked = split_by_runtime_limit(tiny_workload, 1800.0)
        with collect() as c:
            run = run_policy(chunked, "easy.fcfs")
        # chunk successors (index >= 1) were resubmitted by the engine
        resubmitted = sum(
            1 for j in run.result.jobs if j.is_chunk and j.chunk_index > 0
        )
        assert resubmitted > 0
        assert c.get("engine.chunk_resubmit") == resubmitted

    def test_reservation_shortcuts_fire(self, tiny_workload):
        """Depth-k passes stop early and compression keeps jobs in place
        without touching the profile, both on the tiny workload."""
        with collect() as c:
            run_policy(tiny_workload, "consdyn.nomax")
        assert c.get("depthk.pass_cut") > 0
        with collect() as c:
            run_policy(tiny_workload, "cons.nomax")
        assert c.get("cons.compress_kept") > 0

    def test_cached_order_dominates_resorts(self, tiny_workload):
        with collect() as c:
            run_policy(tiny_workload, "easy.fcfs")
        assert (c.get("sched.order_cache_hit") + c.get("sched.order_sort")) > 0


# -- the invariant: telemetry never changes results ---------------------------

class TestDigestInvariance:
    @pytest.mark.parametrize("policy", ["cons.nomax", "consdyn.nomax",
                                        "cplant24.nomax.all", "easy.fairshare"])
    def test_digest_identical_with_telemetry_on(self, tiny_workload, policy):
        bare = run_policy(tiny_workload, policy).result.digest()
        with collect():
            counted = run_policy(tiny_workload, policy).result.digest()
        traced = run_policy(
            tiny_workload, policy, observers=[TraceObserver()]
        ).result.digest()
        assert bare == counted == traced


# -- tracing ------------------------------------------------------------------

class TestTrace:
    def test_ring_buffer_records(self, tiny_workload):
        obs = TraceObserver()
        run_policy(tiny_workload, "easy.fcfs", observers=[obs])
        records = list(obs.records)
        assert records[0]["ev"] == "header"
        assert records[0]["schema"] == TRACE_SCHEMA
        assert records[-1]["ev"] == "end"
        assert records[-1]["jobs"] == 60
        kinds = {r["ev"] for r in records}
        assert {"header", "arrival", "start", "complete", "pass", "end"} <= kinds

    def test_file_round_trip(self, tiny_workload, tmp_path):
        path = tmp_path / "run.jsonl"
        obs = TraceObserver(path, meta={"workload": tiny_workload.name})
        run_policy(tiny_workload, "cons.nomax", observers=[obs])
        records = list(read_trace(path))
        assert records[0]["ev"] == "header"
        assert records[0]["workload"] == tiny_workload.name
        assert records[0]["policy"] == "cons.fairshare"
        n_starts = sum(1 for r in records if r["ev"] == "start")
        assert n_starts == 60

    def test_file_and_ring_agree(self, tiny_workload, tmp_path):
        path = tmp_path / "run.jsonl"
        ring = TraceObserver()
        run_policy(tiny_workload, "easy.fcfs", observers=[ring])
        run_policy(tiny_workload, "easy.fcfs",
                   observers=[TraceObserver(path)])
        assert list(read_trace(path)) == list(ring.records)

    def test_summary_and_render(self, tiny_workload, tmp_path):
        path = tmp_path / "run.jsonl"
        run_policy(tiny_workload, "cons.nomax",
                   observers=[TraceObserver(path)])
        summary = summarize_records(read_trace(path))
        assert summary["policy"] == "cons.fairshare"
        assert summary["events"]["arrival"] == 60
        assert summary["events"]["start"] == 60
        assert summary["passes"]["total"] > 0
        assert 0.0 <= summary["passes"]["productive_fraction"] <= 1.0
        text = render_summary(summary)
        assert text.startswith("trace: policy cons.fairshare")
        assert "queue depth" in text

    def test_reader_rejects_garbage(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty trace"):
            list(read_trace(empty))
        headless = tmp_path / "headless.jsonl"
        headless.write_text('{"ev": "arrival", "t": 0}\n')
        with pytest.raises(ValueError, match="not a header"):
            list(read_trace(headless))
        future = tmp_path / "future.jsonl"
        future.write_text(json.dumps({"ev": "header", "schema": 99}) + "\n")
        with pytest.raises(ValueError, match="unsupported"):
            list(read_trace(future))
        broken = tmp_path / "broken.jsonl"
        broken.write_text('{"ev": "header", "schema": 1}\n{not json\n')
        with pytest.raises(ValueError, match="not JSON"):
            list(read_trace(broken))


# -- cache stats --------------------------------------------------------------

class TestCacheStats:
    def _cell_and_cache(self, tmp_path):
        cell = CampaignSpec.from_dict(SWEEP_SPEC).expand()[0]
        return cell, cell_key(cell), CampaignCache(tmp_path)

    def test_hit_miss_accounting(self, tmp_path):
        cell, key, cache = self._cell_and_cache(tmp_path)
        assert cache.get(key) is None
        cache.put(key, cell.identity(), {"x": 1.0})
        assert cache.get(key) == {"x": 1.0}
        assert (cache.stats.hits, cache.stats.misses,
                cache.stats.corrupt) == (1, 1, 0)
        assert cache.stats.lookups == 2

    def test_corrupt_classification(self, tmp_path):
        cell, key, cache = self._cell_and_cache(tmp_path)
        path = cache.put(key, cell.identity(), {"x": 1.0})
        path.write_text("{not json")
        assert cache.get(key) is None
        # wrong key inside an otherwise valid doc
        cache.put(key, cell.identity(), {"x": 1.0})
        doc = json.loads(path.read_text())
        doc["key"] = "0" * 64
        path.write_text(json.dumps(doc))
        assert cache.get(key) is None
        # metrics block that is not a dict
        cache.put(key, cell.identity(), {"x": 1.0})
        doc = json.loads(path.read_text())
        doc["metrics"] = [1, 2]
        path.write_text(json.dumps(doc))
        assert cache.get(key) is None
        assert cache.stats.corrupt == 3
        assert cache.stats.corrupt_keys == [key] * 3

    def test_schema_mismatch_is_a_plain_miss(self, tmp_path):
        cell, key, cache = self._cell_and_cache(tmp_path)
        path = cache.put(key, cell.identity(), {"x": 1.0})
        doc = json.loads(path.read_text())
        doc["schema"] = -1
        path.write_text(json.dumps(doc))
        assert cache.get(key) is None
        assert (cache.stats.misses, cache.stats.corrupt) == (1, 0)

    def test_snapshot_and_since_window(self):
        s = CacheStats(hits=5, misses=2, corrupt=1, corrupt_keys=["a"])
        base = s.snapshot()
        s.hits += 3
        s.corrupt += 1
        s.corrupt_keys.append("b")
        window = s.since(base)
        assert (window.hits, window.misses, window.corrupt) == (3, 0, 1)
        assert window.corrupt_keys == ["b"]
        # the snapshot is detached from later mutation
        assert base.hits == 5 and base.corrupt_keys == ["a"]


# -- campaign run stats -------------------------------------------------------

class TestRunStats:
    def test_cold_then_warm_stats(self, tmp_path):
        spec = CampaignSpec.from_dict(SWEEP_SPEC)
        cache = CampaignCache(tmp_path)
        cold = run_campaign(spec, jobs=1, cache=cache).stats
        assert (cold.n_cells, cold.n_simulated, cold.n_cached) == (2, 2, 0)
        assert (cold.cache.hits, cold.cache.misses) == (0, 2)
        assert cold.cell_seconds["total"] > 0
        warm = run_campaign(spec, jobs=1, cache=cache).stats
        assert (warm.n_simulated, warm.n_cached) == (0, 2)
        # the warm window shows only this run's lookups, not lifetime totals
        assert (warm.cache.hits, warm.cache.misses) == (2, 0)

    def test_render_and_as_dict(self, tmp_path):
        spec = CampaignSpec.from_dict(SWEEP_SPEC)
        stats = run_campaign(spec, jobs=1,
                             cache=CampaignCache(tmp_path)).stats
        text = stats.render()
        assert "2 simulated, 0 cached" in text
        assert "cache   : 0 hits, 2 misses, 0 corrupt" in text
        json.dumps(stats.as_dict())

    def test_workers_counts_only_processes_that_simulated(self, tmp_path):
        spec = CampaignSpec.from_dict(SWEEP_SPEC)  # 2 cells
        cache = CampaignCache(tmp_path)
        cold = run_campaign(spec, jobs=4, cache=cache).stats
        assert cold.workers == 2  # the pool is min(jobs, cells run)
        assert "workers : 2, utilization" in cold.render()
        cache.path_for(cell_key(spec.expand()[0])).unlink()
        one = run_campaign(spec, jobs=4, cache=cache).stats
        assert (one.n_simulated, one.workers) == (1, 1)  # ran inline
        warm = run_campaign(spec, jobs=4, cache=cache).stats
        assert (warm.n_simulated, warm.workers) == (0, 0)
        assert warm.pool_utilization is None
        assert "workers :" not in warm.render()
        assert warm.as_dict()["pool_utilization"] is None

    def test_corrupt_entries_warned_once_at_end(self, tmp_path, caplog):
        spec = CampaignSpec.from_dict(SWEEP_SPEC)
        cache = CampaignCache(tmp_path)
        run_campaign(spec, jobs=1, cache=cache)
        for cell in spec.expand():
            cache.path_for(cell_key(cell)).write_text("{not json")
        with caplog.at_level(logging.WARNING, logger="repro.campaign"):
            result = run_campaign(spec, jobs=1, cache=cache)
        assert result.n_simulated == 2
        warnings = [r for r in caplog.records
                    if "corrupt cache entr" in r.getMessage()]
        assert len(warnings) == 1
        assert "re-simulated" in warnings[0].getMessage()


# -- stats helpers ------------------------------------------------------------

class TestStatsHelpers:
    def test_percentile_linear_interpolation(self):
        data = [1.0, 2.0, 3.0, 4.0]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 50) == 2.5
        assert percentile(data, 100) == 4.0
        assert percentile([7.0], 95) == 7.0
        assert percentile([], 50) == 0.0
        with pytest.raises(ValueError):
            percentile(data, 101)

    def test_timing_summary_shape(self):
        s = timing_summary([0.1, 0.2, 0.3])
        assert set(s) == {"p50", "p95", "max", "total"}
        assert s["p50"] == 0.2 and s["max"] == 0.3
        assert timing_summary([])["total"] == 0.0

    def test_format_eta_units(self):
        assert format_eta(42) == "42s"
        assert format_eta(190) == "3m10s"
        assert format_eta(7500) == "2h05m"
        assert format_eta(-5) == "0s"

    def test_progress_meter_rate_and_eta(self):
        ticks = iter([0.0, 10.0, 20.0])
        meter = ProgressMeter(total=10, clock=lambda: next(ticks))
        assert meter.note(5) == "0.5 cells/s, eta 10s"
        assert meter.note(10) == "0.5 cells/s, done in 20s"

    def test_utilization_bounds(self):
        assert utilization(8.0, 10.0, 2) == pytest.approx(0.4)
        assert utilization(100.0, 10.0, 2) == 1.0  # clamped
        assert utilization(1.0, 0.0, 2) is None
        assert utilization(1.0, 10.0, 0) is None


# -- logging ------------------------------------------------------------------

class TestLogging:
    def test_loggers_are_repro_children(self):
        log = get_logger("repro.campaign.cache")
        assert log.name == "repro.campaign.cache"
        assert get_logger("cli").name == "repro.cli"

    def test_setup_levels(self):
        root = logging.getLogger("repro")
        old_level, old_handlers = root.level, list(root.handlers)
        try:
            for verbosity, level in [(-1, logging.ERROR), (0, logging.WARNING),
                                     (1, logging.INFO), (2, logging.DEBUG),
                                     (9, logging.DEBUG)]:
                setup_logging(verbosity)
                assert root.level == level
            # repeated setup must not stack handlers
            n = len(root.handlers)
            setup_logging(1)
            assert len(root.handlers) == n
        finally:
            root.setLevel(old_level)
            root.handlers[:] = old_handlers


# -- CLI plumbing -------------------------------------------------------------

class TestCli:
    def test_run_stats_prints_counters(self, capsys):
        from repro.cli import main

        rc = main(["run", "--scale", "0.02", "--seed", "1",
                   "--policy", "easy.fcfs", "--stats"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hot-path counters:" in out
        assert "engine.events" in out
        assert counters_mod.ACTIVE is None  # collection scope closed

    def test_trace_run_and_summarize(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "t.jsonl"
        rc = main(["trace", "run", "--scale", "0.02", "--seed", "1",
                   "--policy", "cons.nomax", "--out", str(trace)])
        assert rc == 0
        assert trace.exists()
        out = capsys.readouterr().out
        assert "trace: policy cons.nomax" in out
        rc = main(["trace", "summarize", str(trace), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == TRACE_SCHEMA
        assert doc["events"]["arrival"] == doc["events"]["complete"]

    def test_trace_header_names_the_policy_key(self, tmp_path, capsys):
        # a baseline and its 72 h-limit variant share a scheduler name; the
        # header carries the registry key, so their traces stay apart
        from repro.cli import main

        policies = {}
        for key in ("cplant24.nomax.all", "cplant24.72max.all"):
            trace = tmp_path / f"{key}.jsonl"
            assert main(["trace", "run", "--scale", "0.01", "--policy", key,
                         "--out", str(trace)]) == 0
            policies[key] = next(read_trace(trace))["policy"]
        assert policies == {key: key for key in policies}
        capsys.readouterr()
        assert main(["trace", "summarize",
                     str(tmp_path / "cplant24.72max.all.jsonl")]) == 0
        assert "trace: policy cplant24.72max.all" in capsys.readouterr().out

    def test_trace_summarize_bad_file_fails(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        assert main(["trace", "summarize", str(bad)]) == 1
        assert "trace" in capsys.readouterr().err
