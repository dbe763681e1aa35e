"""CLI tests (argument wiring and output plumbing, small scales only)."""

import hashlib
import json

import pytest

from repro.cli import _progress, build_parser, main


class TestParser:
    def test_all_subcommands_present(self):
        parser = build_parser()
        sub = {a.dest: a for a in parser._actions}["command"]
        assert set(sub.choices) == {
            "generate", "run", "compare", "figures", "tables", "policies",
            "analyze", "export", "sweep", "scenarios", "paper", "trace",
            "matrix", "cache", "serve",
        }

    def test_run_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--policy", "bogus"])

    @pytest.mark.parametrize("argv", [
        ["sweep", "spec.json"], ["paper", "build"], ["matrix"],
    ])
    def test_cell_run_flags_shared(self, argv):
        """``sweep``, ``paper build`` and ``matrix`` take the same cell-run
        flags, with the same dests and defaults."""
        parser = build_parser()
        shared = ("jobs", "cache_dir", "no_cache", "force", "quiet")
        ns = parser.parse_args(argv)
        assert {k: getattr(ns, k) for k in shared} == {
            "jobs": 1, "cache_dir": None, "no_cache": False,
            "force": False, "quiet": False,
        }
        ns = parser.parse_args(argv + [
            "--jobs", "3", "--cache-dir", "/tmp/c", "--no-cache",
            "--force", "--quiet",
        ])
        assert {k: getattr(ns, k) for k in shared} == {
            "jobs": 3, "cache_dir": "/tmp/c", "no_cache": True,
            "force": True, "quiet": True,
        }


class TestCommands:
    def test_policies_lists_all_nine(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        for key in ("cplant24.nomax.all", "cons.72max", "consdyn.nomax"):
            assert key in out

    def test_policies_lists_the_frontier(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        for key in ("easy.srpt", "fsp.easy", "rr.user"):
            assert key in out

    def test_matrix_writes_text_and_json(self, tmp_path, capsys):
        argv = [
            "matrix", "--policies", "fcfs.nobackfill,rr.user",
            "--orders", "fairshare,fcfs", "--scale", "0.01", "--seed", "3",
            "--no-cache", "--quiet",
            "--out", str(tmp_path / "matrix.txt"),
            "--json", str(tmp_path / "matrix.json"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "policy x reference-order fairness matrix" in out
        assert "2 policies x 2 orders x 1 scenarios" in out
        text = (tmp_path / "matrix.txt").read_text()
        assert "rr.user" in text
        import json as _json

        doc = _json.loads((tmp_path / "matrix.json").read_text())
        assert doc["config"]["policies"] == ["fcfs.nobackfill", "rr.user"]
        assert "cplant-baseline" in doc["matrix"]
        # recorded bytes of both outputs
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "531fb9c7a3b5b4e2aebcca3d86229205994eb42cb32072a32426b1fba3a7b416"
        )
        blob = (tmp_path / "matrix.json").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == (
            "2b4a9a13c3527983655103457f9a2c76e3b47733aa293bf05649904925e0f539"
        )

    def test_matrix_rejects_unknown_axis_values(self, capsys):
        assert main(["matrix", "--orders", "bogus", "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "unknown reference order" in err
        assert main(["matrix", "--policies", "nope", "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "unknown policy" in err

    def test_generate_writes_swf(self, tmp_path, capsys):
        out = tmp_path / "t.swf"
        rc = main(["generate", "--scale", "0.02", "--seed", "1",
                   "--out", str(out)])
        assert rc == 0
        assert out.exists()
        assert out.read_text().startswith("; Version: 2")

    def test_run_prints_metrics(self, capsys):
        rc = main(["run", "--scale", "0.02", "--seed", "1",
                   "--policy", "cplant24.nomax.all"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "avg turnaround" in out
        assert "percent unfair" in out

    def test_run_from_swf(self, tmp_path, capsys):
        swf = tmp_path / "t.swf"
        main(["generate", "--scale", "0.02", "--seed", "1", "--out", str(swf)])
        capsys.readouterr()
        rc = main(["run", "--swf", str(swf), "--policy", "easy.fcfs"])
        assert rc == 0
        assert "utilization" in capsys.readouterr().out

    def test_compare_subset(self, capsys):
        rc = main(["compare", "--scale", "0.02", "--seed", "1",
                   "--policies", "cplant24.nomax.all,cons.nomax"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cons.nomax" in out

    @pytest.mark.parametrize("argv", [
        ["compare", "--scale", "0.02", "--policies", "easy.fcfs,nope"],
        ["export", "--scale", "0.02", "--policies", "easy.fcfs,nope",
         "--json", "unused.json"],
        ["scenarios", "run", "wide-jobs", "--policies", "easy.fcfs,nope"],
    ])
    def test_unknown_policy_exits_2_before_simulating(
        self, argv, monkeypatch, capsys
    ):
        from repro import api

        simulated = []
        monkeypatch.setattr(api, "run", lambda *a, **k: simulated.append(a))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unknown policy 'nope'" in capsys.readouterr().err
        assert simulated == []

    @pytest.mark.parametrize("argv, message", [
        (["--epsilon", "nan"], "epsilon must be finite"),
        (["--policy", "bogus"], "unknown policy 'bogus'"),
        (["--policy", "cons.72max"], "runtime-limit transform"),
    ], ids=["nan-epsilon", "unknown-policy", "runtime-limit-policy"])
    def test_serve_rejects_bad_input_before_binding(
        self, argv, message, monkeypatch, capsys
    ):
        import asyncio

        async def no_bind(*args, **kwargs):
            raise AssertionError("bound a port")

        monkeypatch.setattr(asyncio, "start_server", no_bind)
        assert main(["serve", "--port", "0", *argv]) == 2
        out, err = capsys.readouterr()
        assert message in err
        assert "listening on" not in out

    def test_export_without_outputs_exits_1_before_simulating(
        self, monkeypatch, capsys
    ):
        from repro import api

        def boom(*a, **k):
            raise AssertionError("export simulated with nothing to write")

        monkeypatch.setattr(api, "compare", boom)
        monkeypatch.setattr(api.SimulationRequest, "resolve_workload", boom)
        assert main(["export", "--scale", "0.02", "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == (
            "nothing to write: pass --json, --csv, and/or --per-job\n"
        )
        assert "simulating" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["sweep", "SPEC", "--no-cache", "--resume", "--quiet"],
        ["paper", "build", "--scale", "0.01", "--no-cache", "--resume",
         "--quiet", "--out-dir", "OUT"],
    ], ids=["sweep", "paper-build"])
    def test_resume_without_cache_exits_2_before_simulating(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        from repro import api

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "x", "policies": ["easy.fcfs"],
            "workloads": [{"kind": "random", "n_jobs": 10,
                           "system_size": 8, "seeds": [1]}],
        }))
        argv = [{"SPEC": str(spec), "OUT": str(tmp_path / "out")}.get(a, a)
                for a in argv]
        simulated = []
        monkeypatch.setattr(api, "run", lambda *a, **k: simulated.append(a))
        assert main(argv) == 2
        assert "resume needs a run journal" in capsys.readouterr().err
        assert simulated == []
        assert not (tmp_path / "out").exists()

    def test_tables(self, capsys):
        rc = main(["tables", "--scale", "0.02", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out


class TestScenariosCommands:
    def test_list_names_every_registered_scenario(self, capsys):
        from repro.scenarios import scenario_names

        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_describe_shows_recipe(self, capsys):
        assert main(["scenarios", "describe", "heavy-tail-runtimes"]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "runtime_tail" in out

    def test_run_prints_standard_report(self, capsys):
        rc = main(["scenarios", "run", "wide-jobs", "--seed", "1",
                   "--set", "n_jobs=80", "--policies", "easy.fcfs"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "policy: easy.fcfs" in out
        assert "percent unfair" in out

    def test_run_unknown_scenario_fails_fast(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            main(["scenarios", "run", "bogus-regime"])

    def test_run_unknown_param_fails_fast(self):
        with pytest.raises(ValueError, match="no parameter"):
            main(["scenarios", "run", "wide-jobs", "--set", "bogus=1"])

    def test_export_writes_swf(self, tmp_path, capsys):
        out = tmp_path / "scen.swf"
        rc = main(["scenarios", "export", "bursty-arrivals", "--seed", "2",
                   "--set", "scale=0.02", "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("; Version: 2")


class TestProgressLines:
    class Cell:
        def label(self):
            return "easy.fcfs on cplant"

    def test_first_rate_counts_from_the_start_of_the_run(self, capsys):
        # the run starts at t=0 and each cell takes 2 s: the first line
        # must not divide by the microseconds after the first completion
        ticks = iter([0.0, 2.0, 4.0])
        progress = _progress("sweep", 1, False, clock=lambda: next(ticks))
        progress(1, 2, self.Cell(), "run", 2.0)
        progress(2, 2, self.Cell(), "cache", 0.0)
        assert capsys.readouterr().out.splitlines() == [
            "[sweep] 1/2 run   easy.fcfs on cplant — 0.5 cells/s, eta 2s",
            "[sweep] 2/2 cache easy.fcfs on cplant — 0.5 cells/s, done in 4s",
        ]

    def test_quiet_prints_nothing(self):
        assert _progress("sweep", 1, True) is None
