"""Paper-artifact pipeline: registry completeness, cell dedup, the
incremental build, manifest determinism (in- and cross-process), the
CLI surface, and the standalone benchmark shims."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

from repro.artifacts import (
    MANIFEST_NAME,
    PaperConfig,
    RecordRun,
    all_artifacts,
    build_artifacts,
    diff_manifests,
    get_artifact,
    plan_build,
    select_artifacts,
    verify_outputs,
)
from repro.artifacts.build import workload_record_key
from repro.campaign import CampaignCache, cell_key
from repro.campaign import executor
from repro.campaign import spec as campaign_spec
from repro.cli import main
from repro.experiments.export import policy_run_record
from repro.experiments.runner import run_policy
from repro.obs.counters import CATALOG_NAMES
from repro.sched.registry import MATRIX_POLICIES, PAPER_POLICIES, REGISTRY

REPO_ROOT = Path(__file__).resolve().parent.parent

#: tiny but non-degenerate: ~260 jobs, every policy still queues
SMALL = PaperConfig(scale=0.02, seed=3)

EXPECTED_IDS = (
    [f"fig{n:02d}" for n in range(3, 20)] + ["table1", "table2", "matrix"]
)

#: cells a full cold build simulates: the paper's nine policies under the
#: default options, plus the matrix's eight under its reference-order
#: options (distinct cache keys even where the policy repeats)
N_FULL_CELLS = len(PAPER_POLICIES) + len(MATRIX_POLICIES)

#: the workload-characterization artifacts: they read the trace and no
#: cells, so each is cached as a workload record
WORKLOAD_IDS = ["fig04", "fig05", "fig06", "fig07", "table1", "table2"]

#: sha256 of the ``SMALL`` build's manifest.json.  The manifest embeds
#: every artifact's output sha256 and cell key, so this one digest pins
#: the bytes of the whole build.
SMALL_MANIFEST_SHA256 = (
    "5030f7e8257494a644f855e791a81471348a59d414164c5329aaf2fa37680453"
)


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """One full small-scale build shared by the read-only assertions."""
    root = tmp_path_factory.mktemp("paper")
    cache = CampaignCache(root / "cache")
    result = build_artifacts(
        config=SMALL, out_dir=root / "out", cache=cache, check=True
    )
    return root, cache, result


class TestRegistry:
    def test_every_paper_artifact_is_registered(self):
        assert [a.id for a in all_artifacts()] == EXPECTED_IDS

    def test_output_paths_are_unique(self):
        outputs = [a.output for a in all_artifacts()]
        assert len(outputs) == len(set(outputs))

    def test_policies_are_known_and_inputs_declared(self):
        for art in all_artifacts():
            assert art.policies or art.needs_workload
            for p in art.policies:
                assert p in REGISTRY

    def test_every_artifact_has_a_check(self):
        assert all(a.check is not None for a in all_artifacts())

    def test_pipeline_doc_table_matches_the_registry(self):
        """Same check CI runs via tools/check_docs.py."""
        path = REPO_ROOT / "tools" / "check_docs.py"
        spec = importlib.util.spec_from_file_location("check_docs", path)
        check_docs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(check_docs)
        assert check_docs.check_pipeline_docs() == []

    def test_performance_doc_hot_path_rows_name_real_modules(self):
        """Same check CI runs via tools/check_docs.py; a row naming a
        module that moved or was deleted is reported."""
        path = REPO_ROOT / "tools" / "check_docs.py"
        spec = importlib.util.spec_from_file_location("check_docs", path)
        check_docs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(check_docs)
        assert check_docs.check_performance_docs() == []
        text = (REPO_ROOT / "docs" / "PERFORMANCE.md").read_text()
        stale = text.replace("| `sched/base.py` |", "| `sched/gone.py` |", 1)
        assert check_docs.stale_hot_path_layers(stale) == ["sched/gone.py"]

    def test_every_catalog_counter_has_an_emitter(self):
        """Same check CI runs via tools/check_docs.py; a counter whose
        last emitter was deleted is reported."""
        path = REPO_ROOT / "tools" / "check_docs.py"
        spec = importlib.util.spec_from_file_location("check_docs", path)
        check_docs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(check_docs)
        assert check_docs.check_counter_emitters() == []
        names = CATALOG_NAMES + ("listsched.rebuild",)
        assert check_docs.unemitted_counters(names) == ["listsched.rebuild"]

    def test_unknown_ids_fail_fast(self):
        with pytest.raises(KeyError, match="unknown artifact"):
            get_artifact("fig99")
        with pytest.raises(KeyError, match="fig99"):
            select_artifacts(["fig08", "fig99"])


class TestPlan:
    def test_full_plan_dedupes_to_the_distinct_cells(self):
        plan = plan_build(config=SMALL)
        # the nine-policy paper suite plus the matrix's eight cells (same
        # policies partially, but distinct options => distinct cache keys)
        expected = sorted(list(PAPER_POLICIES) + list(MATRIX_POLICIES))
        assert sorted(c.policy for c in plan.cells) == expected
        assert len(set(plan.keys)) == len(plan.keys)
        # figures 8-19 all share the nine-policy suite: most requirements
        # collapse onto already-planned cells
        assert plan.n_shared > 50

    def test_matrix_cells_do_not_collide_with_the_paper_suite(self):
        plan = plan_build(config=SMALL)
        paper_keys = set(plan.cell_keys["fig08"].values())
        matrix_keys = set(plan.cell_keys["matrix"].values())
        assert not paper_keys & matrix_keys

    def test_subset_plan_is_the_union_of_requirements(self):
        plan = plan_build(["fig08", "fig14", "table1"], config=SMALL)
        wanted = set(get_artifact("fig08").policies)
        wanted |= set(get_artifact("fig14").policies)
        assert sorted(c.policy for c in plan.cells) == sorted(wanted)
        assert plan.needs_workload  # table1 wants the trace

    def test_cell_keys_match_the_campaign_cache_convention(self):
        plan = plan_build(["fig03"], config=SMALL)
        assert plan.keys == [cell_key(plan.cells[0])]

    def test_scale_and_seed_change_the_cell_keys(self):
        base = plan_build(["fig03"], config=SMALL).keys[0]
        other_scale = plan_build(
            ["fig03"], config=PaperConfig(scale=0.03, seed=SMALL.seed)
        ).keys[0]
        other_seed = plan_build(
            ["fig03"], config=PaperConfig(scale=SMALL.scale, seed=99)
        ).keys[0]
        assert len({base, other_scale, other_seed}) == 3


class TestBuild:
    def test_builds_every_artifact(self, built):
        root, _, result = built
        assert len(result.outputs) == len(EXPECTED_IDS)
        for rendered in result.outputs:
            assert rendered.path.is_file()
            assert rendered.path.read_text().rstrip()
        assert result.n_simulated == N_FULL_CELLS
        assert result.n_cached == 0

    def test_rebuild_is_all_cache_hits_and_byte_identical(self, built):
        root, cache, result = built
        before = result.manifest_path.read_bytes()
        again = build_artifacts(
            config=SMALL, out_dir=root / "out", cache=cache, check=True
        )
        assert again.n_simulated == 0
        assert again.n_cached == N_FULL_CELLS
        assert again.manifest_path.read_bytes() == before

    def test_manifest_matches_the_recorded_digest(self, built):
        _, _, result = built
        blob = result.manifest_path.read_bytes()
        assert hashlib.sha256(blob).hexdigest() == SMALL_MANIFEST_SHA256

    def test_figures_command_prints_the_built_figures(self, built, capsys):
        root, _, _ = built
        assert main(["figures", "--scale", str(SMALL.scale),
                     "--seed", str(SMALL.seed)]) == 0
        lines = capsys.readouterr().out.splitlines()
        # the first line describes the workload; progress lines follow
        kept = [ln for ln in lines[1:] if not ln.startswith("[repro] ")]
        texts = []
        for art in all_artifacts():
            if art.kind == "figure":
                text = (root / "out" / art.output).read_text()
                assert text.endswith("\n")
                texts.append(text[:-1])
        assert "\n".join(kept) == "\n\n".join(texts)

    def test_tables_command_prints_the_built_tables(self, built, capsys):
        root, _, _ = built
        assert main(["tables", "--scale", str(SMALL.scale),
                     "--seed", str(SMALL.seed)]) == 0
        out = capsys.readouterr().out
        # the first line describes the workload; the tables simulate nothing
        _, rest = out.split("\n", 1)
        texts = [(root / "out" / get_artifact(i).output).read_text()
                 for i in ("table1", "table2")]
        assert rest == "\n".join(texts)

    def test_manifest_names_inputs_and_digests(self, built):
        root, _, result = built
        doc = json.loads(result.manifest_path.read_text())
        assert set(doc["artifacts"]) == set(EXPECTED_IDS)
        assert doc["config"] == {"scale": SMALL.scale, "seed": SMALL.seed}
        fig14 = doc["artifacts"]["fig14"]
        assert set(fig14["inputs"]["cells"]) == set(PAPER_POLICIES)
        table1 = doc["artifacts"]["table1"]
        assert table1["inputs"]["cells"] == {}
        assert table1["inputs"]["workload"]
        for entry in doc["artifacts"].values():
            assert len(entry["sha256"]) == 64

    def test_verify_outputs_flags_edits(self, built):
        root, _, result = built
        assert verify_outputs(root / "out") == []
        victim = root / "out" / get_artifact("fig08").output
        original = victim.read_text()
        victim.write_text(original + "tampered\n")
        try:
            problems = verify_outputs(root / "out")
            assert any("fig08" in p for p in problems)
        finally:
            victim.write_text(original)

    def test_diff_manifests(self, built):
        root, _, result = built
        doc = json.loads(result.manifest_path.read_text())
        assert diff_manifests(doc, doc) == []
        other = json.loads(result.manifest_path.read_text())
        other["artifacts"]["fig08"]["sha256"] = "0" * 64
        del other["artifacts"]["table2"]
        diffs = diff_manifests(doc, other)
        assert any("fig08" in d for d in diffs)
        assert any("table2" in d for d in diffs)

    def test_subset_build_reuses_the_shared_cache(self, built):
        root, cache, _ = built
        result = build_artifacts(
            only=["fig08", "table1"],
            config=SMALL,
            out_dir=root / "subset",
            cache=cache,
        )
        assert result.n_simulated == 0
        assert [r.artifact.id for r in result.outputs] == ["fig08", "table1"]

    def test_parallel_build_matches_inline(self, built, tmp_path):
        root, _, result = built
        parallel = build_artifacts(
            config=SMALL,
            out_dir=tmp_path / "out",
            cache=CampaignCache(tmp_path / "cache"),
            jobs=2,
        )
        assert parallel.n_simulated == N_FULL_CELLS
        assert (
            parallel.manifest_path.read_bytes()
            == result.manifest_path.read_bytes()
        )


def count_traces(monkeypatch, fail: bool = False) -> list:
    """Empty the per-process workload memo and count (or, with ``fail``,
    forbid) synthetic-trace generation; returns the call log."""
    calls: list = []
    generate = campaign_spec.generate_cplant_workload

    def spy(*args, **kwargs):
        calls.append(args)
        if fail:
            raise AssertionError("the trace was generated")
        return generate(*args, **kwargs)

    monkeypatch.setattr(executor, "_WL_CACHE", OrderedDict())
    monkeypatch.setattr(campaign_spec, "generate_cplant_workload", spy)
    return calls


def record_puts(monkeypatch, cache: CampaignCache) -> list:
    """The keys ``cache`` stores from now on, in order."""
    keys: list = []
    put = cache.put

    def spy(key, identity, metrics):
        keys.append(key)
        return put(key, identity, metrics)

    monkeypatch.setattr(cache, "put", spy)
    return keys


def output_bytes(result) -> dict:
    blobs = {r.artifact.id: r.path.read_bytes() for r in result.outputs}
    blobs[MANIFEST_NAME] = result.manifest_path.read_bytes()
    return blobs


def record_keys(config: PaperConfig = SMALL) -> dict:
    return {i: workload_record_key(get_artifact(i), config) for i in WORKLOAD_IDS}


class TestWorkloadRecords:
    """The workload artifacts' texts and trace digest, cached per artifact
    in the cell cache so a warm build never touches the trace."""

    def build(self, tmp_path, tag, cache, **kwargs):
        kwargs.setdefault("config", SMALL)
        kwargs.setdefault("only", WORKLOAD_IDS)
        return build_artifacts(out_dir=tmp_path / tag, cache=cache, **kwargs)

    def test_cold_build_matches_the_uncached_build(self, tmp_path):
        cold = self.build(tmp_path, "cold", CampaignCache(tmp_path / "c"))
        uncached = self.build(tmp_path, "plain", None)
        assert output_bytes(cold) == output_bytes(uncached)

    def test_warm_build_never_touches_the_trace(self, tmp_path, monkeypatch):
        cold = self.build(tmp_path, "cold", CampaignCache(tmp_path / "c"))
        count_traces(monkeypatch, fail=True)
        cache = CampaignCache(tmp_path / "c")
        warm = self.build(tmp_path, "warm", cache)
        assert output_bytes(warm) == output_bytes(cold)
        assert cache.stats.hits == len(WORKLOAD_IDS)
        # a new cache object over the same root: what a fresh process sees
        fresh = self.build(tmp_path, "fresh", CampaignCache(tmp_path / "c"))
        assert output_bytes(fresh) == output_bytes(cold)

    def test_warm_full_build_never_touches_the_trace(
        self, built, tmp_path, monkeypatch
    ):
        root, cache, result = built
        count_traces(monkeypatch, fail=True)
        warm = self.build(tmp_path, "warm", cache, only=None)
        assert warm.n_simulated == 0
        assert warm.n_cached == N_FULL_CELLS
        assert output_bytes(warm) == output_bytes(result)

    def test_damaged_records_are_rendered_again_and_re_put(
        self, tmp_path, monkeypatch
    ):
        cache = CampaignCache(tmp_path / "c")
        cold = self.build(tmp_path, "cold", cache)
        keys = record_keys()
        cache.path_for(keys["fig05"]).unlink()
        victim = cache.path_for(keys["table1"])
        victim.write_text(victim.read_text()[:40])
        traces = count_traces(monkeypatch)
        puts = record_puts(monkeypatch, cache)
        again = self.build(tmp_path, "again", cache)
        assert output_bytes(again) == output_bytes(cold)
        assert len(traces) == 1
        assert puts == [keys["fig05"], keys["table1"]]
        assert cache.verify().n_ok == len(WORKLOAD_IDS)

    def test_a_record_of_another_trace_is_rendered_again(
        self, tmp_path, monkeypatch
    ):
        cache = CampaignCache(tmp_path / "c")
        cold = self.build(tmp_path, "cold", cache)
        keys = record_keys()
        rec = cache.get(keys["fig06"])
        cache.put(keys["fig06"], {"artifact": "fig06"},
                  {**rec, "workload": "0" * 64, "text": "stale"})
        traces = count_traces(monkeypatch)
        puts = record_puts(monkeypatch, cache)
        again = self.build(tmp_path, "again", cache)
        assert output_bytes(again) == output_bytes(cold)
        assert len(traces) == 1
        assert puts == [keys["fig06"]]

    @pytest.mark.parametrize("flag", ["check", "force"])
    def test_check_and_force_render_from_the_trace(
        self, tmp_path, monkeypatch, flag
    ):
        cache = CampaignCache(tmp_path / "c")
        cold = self.build(tmp_path, "cold", cache)
        traces = count_traces(monkeypatch)
        puts = record_puts(monkeypatch, cache)
        again = self.build(tmp_path, "again", cache, **{flag: True})
        assert output_bytes(again) == output_bytes(cold)
        assert len(traces) == 1
        assert puts == list(record_keys().values())

    @pytest.mark.parametrize(
        "other", [PaperConfig(scale=0.02, seed=4), PaperConfig(scale=0.03, seed=3)]
    )
    def test_another_seed_or_scale_never_reads_them(
        self, tmp_path, monkeypatch, other
    ):
        cache = CampaignCache(tmp_path / "c")
        self.build(tmp_path, "small", cache)
        assert not set(record_keys(other).values()) & set(record_keys().values())
        traces = count_traces(monkeypatch)
        got = self.build(tmp_path, "other", cache, config=other)
        assert len(traces) == 1
        assert cache.stats.hits == 0
        want = self.build(tmp_path, "plain", None, config=other)
        assert output_bytes(got) == output_bytes(want)

    def test_cache_verify_counts_them_healthy(self, tmp_path, capsys):
        self.build(tmp_path, "cold", CampaignCache(tmp_path / "c"))
        capsys.readouterr()
        assert main(["cache", "verify", "--cache-dir", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        n = len(WORKLOAD_IDS)
        assert f"{n} entries — {n} ok, 0 corrupt" in out

    def test_a_subset_build_record_serves_the_full_build(self, tmp_path, monkeypatch):
        cache_dir = str(tmp_path / "c")
        argv = ["paper", "build", "--scale", str(SMALL.scale),
                "--seed", str(SMALL.seed), "--cache-dir", cache_dir, "--quiet"]
        assert main([*argv, "--only", "fig04",
                     "--out-dir", str(tmp_path / "one")]) == 0
        cache = CampaignCache(cache_dir)
        puts = record_puts(monkeypatch, cache)
        full = self.build(tmp_path, "full", cache, only=None)
        keys = record_keys()
        assert keys["fig04"] not in puts
        assert [k for k in puts if k in keys.values()] == [
            keys[i] for i in WORKLOAD_IDS[1:]
        ]
        one = (tmp_path / "one" / get_artifact("fig04").output).read_bytes()
        assert full.texts["fig04"] + "\n" == one.decode()

    def test_cold_inline_build_generates_the_trace_once(
        self, tmp_path, monkeypatch
    ):
        traces = count_traces(monkeypatch)
        result = self.build(
            tmp_path, "cold", CampaignCache(tmp_path / "c"), only=["fig08", "fig04"]
        )
        assert result.n_simulated == len(get_artifact("fig08").policies)
        assert len(traces) == 1


class TestRecordRun:
    def test_matches_the_live_policy_run(self):
        wl = SMALL.build_workload()
        run = run_policy(wl, "cplant24.nomax.all")
        rec = RecordRun("cplant24.nomax.all", policy_run_record(run))
        assert rec.percent_unfair == run.percent_unfair
        assert rec.average_miss_time == run.average_miss_time
        assert rec.average_turnaround == run.average_turnaround
        assert rec.loss_of_capacity == run.loss_of_capacity
        np.testing.assert_array_equal(rec.miss_by_width, run.miss_by_width)
        np.testing.assert_array_equal(
            rec.turnaround_by_width, run.turnaround_by_width
        )
        np.testing.assert_array_equal(
            rec.weekly.offered_load, run.weekly.offered_load
        )
        np.testing.assert_array_equal(
            rec.weekly.utilization, run.weekly.utilization
        )

    def test_record_survives_a_json_round_trip_exactly(self):
        wl = SMALL.build_workload()
        run = run_policy(wl, "easy.fcfs")
        record = policy_run_record(run)
        roundtripped = json.loads(json.dumps(record))
        assert roundtripped == record


class TestCrossProcessDeterminism:
    def test_manifests_agree_across_fresh_processes(self, tmp_path):
        """Two cold builds in separate interpreters (separate caches, so
        both actually simulate) must write byte-identical manifests."""
        prog = (
            "import sys\n"
            "from repro.artifacts import PaperConfig, build_artifacts\n"
            "from repro.campaign import CampaignCache\n"
            "out, cache = sys.argv[1], sys.argv[2]\n"
            "r = build_artifacts(only=['fig03', 'fig08', 'table1'],\n"
            "                    config=PaperConfig(scale=0.02, seed=3),\n"
            "                    out_dir=out, cache=CampaignCache(cache))\n"
            "print(r.manifest_path)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        )
        manifests = []
        for tag in ("a", "b"):
            subprocess.run(
                [
                    sys.executable,
                    "-c",
                    prog,
                    str(tmp_path / tag),
                    str(tmp_path / f"cache-{tag}"),
                ],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            manifests.append((tmp_path / tag / MANIFEST_NAME).read_bytes())
        assert manifests[0] == manifests[1]


class TestPaperCLI:
    def test_subcommands_present(self):
        from repro.cli import build_parser

        parser = build_parser()
        sub = {a.dest: a for a in parser._actions}["command"]
        assert "paper" in sub.choices

    def test_list(self, capsys):
        assert main(["paper", "list"]) == 0
        out = capsys.readouterr().out
        for art_id in EXPECTED_IDS:
            assert art_id in out

    def test_build_only_and_diff(self, tmp_path, capsys):
        argv = [
            "paper",
            "build",
            "--only",
            "fig04,table1",
            "--scale",
            "0.02",
            "--seed",
            "3",
            "--out-dir",
            str(tmp_path / "out"),
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 artifacts" in out
        assert (tmp_path / "out" / MANIFEST_NAME).is_file()

        assert main(["paper", "diff", "--out-dir", str(tmp_path / "out")]) == 0
        capsys.readouterr()

        # an edited output is reported as stale, and rc flips to 1
        victim = tmp_path / "out" / get_artifact("fig04").output
        victim.write_text(victim.read_text() + "x\n")
        assert main(["paper", "diff", "--out-dir", str(tmp_path / "out")]) == 1
        assert "fig04" in capsys.readouterr().out

    def test_build_rejects_unknown_artifact(self, tmp_path, capsys):
        rc = main(
            [
                "paper",
                "build",
                "--only",
                "fig99",
                "--out-dir",
                str(tmp_path / "out"),
                "--no-cache",
            ]
        )
        assert rc == 2
        assert "fig99" in capsys.readouterr().err

    def test_diff_against_other_manifest(self, tmp_path, capsys):
        for tag in ("a", "b"):
            assert (
                main(
                    [
                        "paper",
                        "build",
                        "--only",
                        "fig04",
                        "--scale",
                        "0.02",
                        "--seed",
                        "3",
                        "--out-dir",
                        str(tmp_path / tag),
                        "--cache-dir",
                        str(tmp_path / "cache"),
                        "--quiet",
                    ]
                )
                == 0
            )
        capsys.readouterr()
        rc = main(
            [
                "paper",
                "diff",
                "--out-dir",
                str(tmp_path / "a"),
                "--against",
                str(tmp_path / "b" / MANIFEST_NAME),
            ]
        )
        assert rc == 0
        assert "agree" in capsys.readouterr().out
