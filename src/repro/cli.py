"""Command-line interface.

Subcommands::

    repro generate  --scale 0.2 --seed 7 --out trace.swf
    repro run       --policy cplant24.nomax.all [--swf trace.swf | --scale 0.1]
    repro compare   --policies cplant24.nomax.all,cons.72max --scale 0.1
    repro figures   --scale 0.1          # print every paper figure
    repro tables    --scale 1.0          # print Tables 1-2
    repro analyze   --scale 0.1          # workload characterization
    repro export    --scale 0.1 --json suite.json --csv suite.csv
    repro sweep     campaign.json --jobs 4   # parallel cached sweep
    repro sweep     campaign.json --resume   # continue an interrupted run
    repro cache     verify|prune             # audit/repair the cell cache
    repro paper build --scale 0.05 --jobs 4  # build every paper artifact
    repro paper build --only fig08,table1
    repro paper list                      # the artifact registry
    repro paper diff --against other/manifest.json
    repro matrix    --scale 0.02          # policy x reference-order fairness
    repro policies                        # list known policies
    repro trace run --policy cons.nomax --out run.jsonl
    repro trace summarize run.jsonl       # per-policy decision summary
    repro scenarios list                  # the scenario library
    repro scenarios describe heavy-tail-runtimes
    repro scenarios run heavy-tail-runtimes --set alpha=1.3
    repro scenarios export bursty-arrivals --out bursty.swf
    repro serve     --port 0 --policy easy.fairshare   # multi-tenant server

``python -m repro ...`` works too; ``pip install -e .`` provides the
``repro`` entry point (and its alias ``repro-sched``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import List, Optional

from . import artifacts as A
from .campaign import (
    CampaignCache,
    CampaignSpec,
    RetryPolicy,
    aggregate_rows,
)
from .campaign.executor import ProgressFn
from .experiments.export import (
    export_campaign_csv,
    export_campaign_json,
    export_per_job_csv,
    export_suite_csv,
    export_suite_json,
)
from . import api
from .obs import collect_counters, render_counters, setup_logging
from .obs.stats import ProgressMeter
from .workload.analysis import render_analysis
from .sched.registry import PAPER_POLICIES, REGISTRY, get_policy
from .workload.model import Workload
from .workload.swf import write_swf


def _load_workload(args) -> Workload:
    return api.SimulationRequest(
        swf=args.swf or None, scale=args.scale, seed=args.seed
    ).resolve_workload()


def _policy_keys(arg: Optional[str], default) -> List[str]:
    """``--policies`` as a list of keys, each checked against the registry
    before anything is built or simulated; an unknown key prints the
    registry's message and exits 2."""
    keys = arg.split(",") if arg else list(default)
    for key in keys:
        try:
            get_policy(key)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            raise SystemExit(2) from None
    return keys


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--swf", help="read an SWF trace instead of generating")
    p.add_argument("--scale", type=float, default=0.1,
                   help="synthetic trace scale (fraction of the full trace)")
    p.add_argument("--seed", type=int, default=7, help="generator seed")


def cmd_generate(args) -> int:
    wl = _load_workload(args)
    write_swf(wl, args.out)
    print(wl.describe())
    print(f"wrote {args.out}")
    return 0


def cmd_run(args) -> int:
    wl = _load_workload(args)
    print(wl.describe())
    with collect_counters() if args.stats else nullcontext() as counters:
        handle = api.run(policy=args.policy, workload=wl)
    print(handle.report())
    if args.stats:
        print("hot-path counters:")
        print(render_counters(counters))
    return 0


def cmd_trace_run(args) -> int:
    from .obs.trace import TraceObserver, read_trace, render_summary, \
        summarize_records

    wl = _load_workload(args)
    print(wl.describe())
    obs = TraceObserver(args.out or None, meta={"workload": wl.name})
    api.run(policy=args.policy, workload=wl, observers=(obs,))
    if args.out:
        records = list(read_trace(args.out))
        print(f"wrote {args.out} ({len(records)} records)")
    else:
        records = list(obs.records)
    print(render_summary(summarize_records(records)))
    return 0


def cmd_trace_summarize(args) -> int:
    from .obs.trace import read_trace, render_summary, summarize_records

    try:
        summary = summarize_records(read_trace(args.trace))
    except (OSError, ValueError) as exc:
        print(f"[trace] {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render_summary(summary))
    return 0


def cmd_compare(args) -> int:
    keys = _policy_keys(args.policies, PAPER_POLICIES)
    wl = _load_workload(args)
    print(wl.describe())
    suite = api.compare(keys, workload=wl, progress=True)
    hdr = (f"{'policy':<24}{'%unfair':>9}{'avg miss':>12}{'avg TAT':>12}"
           f"{'LOC%':>8}{'util%':>8}")
    print(hdr)
    for k, r in suite.items():
        print(
            f"{k:<24}{100 * r.percent_unfair:>8.2f}%"
            f"{r.average_miss_time:>12,.0f}{r.average_turnaround:>12,.0f}"
            f"{100 * r.loss_of_capacity:>7.2f}%{100 * r.summary.utilization:>7.1f}%"
        )
    return 0


def _render_artifacts(arts, suite, wl: Workload) -> str:
    inputs = A.ArtifactInputs(suite, wl)
    return "\n\n".join(art.build_text(inputs) for art in arts)


def cmd_figures(args) -> int:
    wl = _load_workload(args)
    print(wl.describe())
    suite = api.compare(PAPER_POLICIES, workload=wl, progress=True)
    figures = [a for a in A.all_artifacts() if a.kind == "figure"]
    print(_render_artifacts(figures, suite, wl))
    return 0


def cmd_tables(args) -> int:
    wl = _load_workload(args)
    print(wl.describe())
    tables = [A.get_artifact("table1"), A.get_artifact("table2")]
    print(_render_artifacts(tables, {}, wl))
    return 0


def cmd_analyze(args) -> int:
    wl = _load_workload(args)
    print(render_analysis(wl))
    return 0


def cmd_export(args) -> int:
    keys = _policy_keys(args.policies, PAPER_POLICIES)
    if not (args.json or args.csv or args.per_job):
        print("nothing to write: pass --json, --csv, and/or --per-job")
        return 1
    wl = _load_workload(args)
    print(wl.describe())
    suite = api.compare(keys, workload=wl, progress=True)
    wrote = []
    if args.json:
        export_suite_json(suite, args.json)
        wrote.append(args.json)
    if args.csv:
        export_suite_csv(suite, args.csv)
        wrote.append(args.csv)
    if args.per_job:
        for key, run in suite.items():
            path = f"{args.per_job}.{key}.csv"
            export_per_job_csv(run, path)
            wrote.append(path)
    for path in wrote:
        print(f"wrote {path}")
    return 0


def _progress(prefix: str, width: int, quiet: bool) -> Optional[ProgressFn]:
    """The campaign progress callback: one ``[prefix] done/total`` line
    per finished cell (None under ``--quiet``)."""
    if quiet:
        return None
    meter: List[ProgressMeter] = []

    def progress(done, total, cell, source, elapsed):
        if not meter:
            meter.append(ProgressMeter(total))
        tag = {"cache": "cache", "journal": "jrnl "}.get(source, "run  ")
        print(f"[{prefix}] {done:>{width}}/{total} {tag} {cell.label()} "
              f"— {meter[0].note(done)}", flush=True)

    return progress


def _retry_policy(args) -> "RetryPolicy":
    """The :class:`RetryPolicy` described by ``--retries``/``--timeout``."""
    return RetryPolicy(max_attempts=args.retries + 1, timeout=args.timeout)


def _add_cell_run_args(
    p: argparse.ArgumentParser,
    quiet_help: str = "suppress per-cell progress lines",
) -> None:
    """The flags of every command that runs cells through the campaign
    cache (``sweep``, ``paper build``, ``matrix``)."""
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (1 = run inline, no pool)")
    p.add_argument("--cache-dir", default=None,
                   help="cache root (default ~/.cache/repro-campaign)")
    p.add_argument("--no-cache", action="store_true",
                   help="neither read nor write the on-disk cache")
    p.add_argument("--force", action="store_true",
                   help="ignore cached cells but still refresh them")
    p.add_argument("--quiet", action="store_true", help=quiet_help)


def _cache(args) -> Optional[CampaignCache]:
    """The cell cache ``--cache-dir``/``--no-cache`` ask for."""
    return None if args.no_cache else CampaignCache(args.cache_dir)


def _add_robustness_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--retries", type=int, default=2,
                   help="extra attempts per failed cell (0 = fail fast)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-cell wall-clock budget in seconds "
                        "(pool mode only; default: unlimited)")
    p.add_argument("--resume", action="store_true",
                   help="replay completed cells from this grid's run "
                        "journal before executing the rest")


def cmd_sweep(args) -> int:
    spec = CampaignSpec.from_json(args.spec)
    try:
        result = api.sweep(
            spec,
            jobs=args.jobs,
            cache=_cache(args),
            force=args.force,
            progress=_progress("sweep", 4, args.quiet),
            retry=_retry_policy(args),
            keep_going=args.keep_going,
            resume=args.resume,
        )
    except ValueError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    doc = result.aggregate()

    print(
        f"campaign {spec.name!r}: {result.n_cells} cells "
        f"({result.n_simulated} simulated, {result.n_cached} cached) "
        f"in {result.stats.wall:.1f}s with --jobs {args.jobs}"
    )
    if args.stats:
        print(result.stats.render())
    if result.n_failed:
        for f in result.stats.failures:
            print(f"[sweep] FAILED {f.cell.label()} [{f.kind}] after "
                  f"{f.attempts} attempt(s): {f.error}", file=sys.stderr)
        print(f"[sweep] partial result: {result.n_failed} cells missing "
              f"from aggregates", file=sys.stderr)
    def _group_label(g) -> str:
        wl = g["workload"]
        head = wl.get("scenario") or wl["kind"]
        wname = (wl.get("path") or
                 f"{head}({', '.join(f'{k}={v}' for k, v in wl.get('params', {}).items())})")
        if g["overrides"]:
            ov = ",".join(f"{k}={v}" for k, v in g["overrides"].items())
            wname = f"{wname} [{ov}]"
        return wname

    labels = [_group_label(g) for g in doc["groups"]]
    wcol = max([len("workload"), *map(len, labels)]) + 2
    print(f"{'policy':<24}{'workload':<{wcol}}{'n':>3}"
          f"{'%unfair':>14}{'avg TAT':>20}")
    for g, wname in zip(doc["groups"], labels):
        pu = g["metrics"].get("fairness.percent_unfair", {})
        tat = g["metrics"].get("summary.avg_turnaround", {})
        print(
            f"{g['policy']:<24}{wname:<{wcol}}{g['n_cells']:>3}"
            f"{100 * pu.get('mean', 0):>8.2f}±{100 * pu.get('ci95', 0):<4.2f}%"
            f"{tat.get('mean', 0):>13,.0f}±{tat.get('ci95', 0):<,.0f}s"
        )
    wrote = []
    if args.json:
        export_campaign_json(doc, args.json)
        wrote.append(args.json)
    if args.csv:
        export_campaign_csv(aggregate_rows(doc), args.csv)
        wrote.append(args.csv)
    for path in wrote:
        print(f"wrote {path}")
    return 1 if result.n_failed else 0


def cmd_cache_verify(args) -> int:
    cache = CampaignCache(args.cache_dir)
    audit = cache.verify()
    if args.json:
        print(json.dumps(audit.as_dict(), indent=2, sort_keys=True))
    else:
        print(f"[cache] {cache.root}: {audit.n_entries} entries — "
              f"{audit.n_ok} ok, {audit.n_corrupt} corrupt, "
              f"{audit.n_other_schema} other-schema, "
              f"{audit.n_tmp} tmp orphan(s)")
        for key, why in audit.corrupt:
            print(f"[cache] corrupt {key[:16]}…: {why}")
    return 1 if audit.corrupt else 0


def cmd_cache_prune(args) -> int:
    cache = CampaignCache(args.cache_dir)
    audit = cache.prune(quarantine=args.quarantine)
    action = "quarantined" if args.quarantine else "removed"
    print(f"[cache] {cache.root}: {action} {audit.n_corrupt} corrupt "
          f"entr{'y' if audit.n_corrupt == 1 else 'ies'}, reaped "
          f"{audit.n_tmp} tmp orphan(s) "
          f"({audit.n_ok} of {audit.n_entries} entries ok)")
    return 0


def cmd_matrix(args) -> int:
    from .experiments.matrix import MatrixConfig, render_matrix, run_matrix

    try:
        cfg = MatrixConfig(
            policies=tuple(args.policies.split(","))
            if args.policies else MatrixConfig.policies,
            reference_orders=tuple(args.orders.split(","))
            if args.orders else MatrixConfig.reference_orders,
            scenarios=tuple(args.scenarios.split(","))
            if args.scenarios else MatrixConfig.scenarios,
            scale=args.scale,
            seed=args.seed,
        )
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    cache = _cache(args)
    results, tables = run_matrix(
        cfg, jobs=args.jobs, cache=cache, force=args.force,
        progress=_progress("matrix", 3, args.quiet),
    )
    text = render_matrix(tables, cfg.reference_orders,
                         policies=cfg.policies, scenarios=cfg.scenarios)
    print(text)
    n_cached = sum(1 for r in results if r.cached)
    print(
        f"\nmatrix: {len(results)} cells "
        f"({len(results) - n_cached} simulated, {n_cached} cached) "
        f"— {len(cfg.policies)} policies x {len(cfg.reference_orders)} "
        f"orders x {len(cfg.scenarios)} scenarios"
    )
    wrote = []
    if args.out:
        Path(args.out).write_text(text + "\n")
        wrote.append(args.out)
    if args.json:
        doc = {"config": dataclasses.asdict(cfg), "matrix": tables}
        Path(args.json).write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
        wrote.append(args.json)
    for path in wrote:
        print(f"wrote {path}")
    return 0


def _parse_param_sets(items) -> dict:
    """``--set k=v`` pairs -> typed values (int, float, bool, or str)."""
    out = {}
    for item in items or ():
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise SystemExit(f"--set expects key=value, got {item!r}")
        if raw.lower() in ("true", "false"):
            out[key] = raw.lower() == "true"
            continue
        for cast in (int, float):
            try:
                out[key] = cast(raw)
                break
            except ValueError:
                continue
        else:
            out[key] = raw
    return out


def cmd_scenarios_list(_args) -> int:
    print(f"{'scenario':<24}{'axis':<28}{'parameters'}")
    for sc in api.list_scenarios():
        params = ", ".join(f"{p.name}={p.default}" for p in sc.params) or "-"
        print(f"{sc.name:<24}{sc.axis:<28}{params}")
    print("\nrepro scenarios describe <name> for the full recipe; "
          "docs/SCENARIOS.md for the catalog")
    return 0


def cmd_scenarios_describe(args) -> int:
    print(api.get_scenario(args.name).describe())
    return 0


def cmd_scenarios_run(args) -> int:
    params = _parse_param_sets(args.set)
    sc = api.get_scenario(args.name)  # unknown name dies before any simulation
    keys = _policy_keys(args.policies, ["cplant24.nomax.all"])
    print(sc.build(seed=args.seed, **params).describe())
    # rebuilds the workload (generation is cheap next to simulation) so the
    # scenario-option merge semantics live in the facade alone
    suite = api.compare(keys, scenario=args.name, seed=args.seed,
                        params=tuple(params.items()),
                        progress=len(keys) > 1)
    for handle in suite.values():
        print(handle.report())
    return 0


def cmd_scenarios_export(args) -> int:
    params = _parse_param_sets(args.set)
    wl = api.get_scenario(args.name).build(seed=args.seed, **params)
    out = args.out or f"{args.name}.swf"
    write_swf(wl, out)
    print(wl.describe())
    print(f"wrote {out}")
    return 0


def cmd_paper_list(_args) -> int:
    print(f"{'id':<8}{'kind':<8}{'inputs':<26}{'output'}")
    for art in A.all_artifacts():
        deps = []
        if art.policies:
            deps.append(f"{len(art.policies)} policy cells")
        if art.needs_workload:
            deps.append("workload")
        print(f"{art.id:<8}{art.kind:<8}{' + '.join(deps):<26}{art.output}")
    print(f"\n{len(A.all_artifacts())} artifacts; "
          "repro paper build [--only id,id] builds them (docs/PIPELINE.md)")
    return 0


def cmd_paper_build(args) -> int:
    only = args.only.split(",") if args.only else None
    cache = _cache(args)
    config = A.PaperConfig(scale=args.scale, seed=args.seed)
    try:
        result = api.build_artifacts(
            only=only,
            config=config,
            out_dir=args.out_dir,
            jobs=args.jobs,
            cache=cache,
            force=args.force,
            check=args.check,
            progress=_progress("paper", 3, args.quiet),
            retry=_retry_policy(args),
            resume=args.resume,
        )
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    plan = result.plan
    if args.stats:
        print(result.stats.render())
    if not args.quiet:
        for rendered in result.outputs:
            print(f"[paper] wrote {rendered.path} "
                  f"(sha256 {rendered.sha256[:12]})")
    print(
        f"paper build: {len(result.outputs)} artifacts, "
        f"{len(plan.cells)} cells ({result.n_simulated} simulated, "
        f"{result.n_cached} cached, {plan.n_shared} shared) "
        f"in {result.elapsed:.1f}s at scale {plan.config.scale}"
    )
    print(f"manifest: {result.manifest_path}")
    return 0


def cmd_paper_diff(args) -> int:
    if args.against:
        try:
            ours = A.load_manifest(args.out_dir)
        except (OSError, ValueError):
            print(f"[paper-diff] missing or unreadable "
                  f"{A.MANIFEST_NAME} in {args.out_dir}")
            return 1
        try:
            theirs = json.loads(Path(args.against).read_text())
        except (OSError, ValueError):
            print(f"[paper-diff] missing or unreadable manifest "
                  f"{args.against}")
            return 1
        diffs = A.diff_manifests(ours, theirs)
        for d in diffs:
            print(f"[paper-diff] {d}")
        if diffs:
            return 1
        print(f"[paper-diff] manifests agree ({len(ours['artifacts'])} artifacts)")
        return 0
    problems = A.verify_outputs(args.out_dir)
    for p in problems:
        print(f"[paper-diff] {p}")
    if problems:
        return 1
    doc = A.load_manifest(args.out_dir)
    print(f"[paper-diff] {args.out_dir} matches its manifest "
          f"({len(doc['artifacts'])} artifacts)")
    return 0


def cmd_serve(args) -> int:
    overrides = {}
    if args.estimate_mode:
        overrides["estimate_mode"] = args.estimate_mode
    if args.epsilon is not None:
        overrides["epsilon"] = args.epsilon
    api.serve(
        host=args.host,
        port=args.port,
        policy=args.policy,
        system_size=args.system_size,
        options=overrides or None,
        max_pending=args.max_pending,
    )
    return 0


def cmd_policies(_args) -> int:
    for key, spec in REGISTRY.items():
        star = "*" if key in PAPER_POLICIES else " "
        print(f"{star} {key:<24} {spec.description}")
    print("\n* = one of the paper's nine evaluated policies")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-sched",
        description="CPlant fairness case-study reproduction",
    )
    p.add_argument("-v", "--verbose", action="count", default=0,
                   help="more logging (-v info, -vv debug)")
    # top-level quiet gets its own dest: `sweep`, `paper build` and
    # `matrix` define a --quiet of their own whose default would clobber
    # a shared dest
    p.add_argument("-q", dest="log_quiet", action="count", default=0,
                   help="less logging (errors only)")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic SWF trace")
    _add_workload_args(g)
    g.add_argument("--out", default="cplant_synthetic.swf")
    g.set_defaults(fn=cmd_generate)

    r = sub.add_parser("run", help="simulate one policy")
    _add_workload_args(r)
    r.add_argument("--policy", default="cplant24.nomax.all",
                   choices=sorted(REGISTRY))
    r.add_argument("--stats", action="store_true",
                   help="collect and print hot-path counters")
    r.set_defaults(fn=cmd_run)

    tr = sub.add_parser(
        "trace", help="structured event tracing (JSONL) and summaries",
    )
    trsub = tr.add_subparsers(dest="trace_command", required=True)

    trr = trsub.add_parser(
        "run", help="simulate one policy with the trace observer attached",
    )
    _add_workload_args(trr)
    trr.add_argument("--policy", default="cplant24.nomax.all",
                     choices=sorted(REGISTRY))
    trr.add_argument("--out", default=None,
                     help="JSONL trace path (default: in-memory, summary only)")
    trr.set_defaults(fn=cmd_trace_run)

    trs = trsub.add_parser(
        "summarize", help="per-policy decision summary of a JSONL trace",
    )
    trs.add_argument("trace", help="trace file written by `trace run --out`")
    trs.add_argument("--json", action="store_true",
                     help="print the summary as JSON instead of text")
    trs.set_defaults(fn=cmd_trace_summarize)

    c = sub.add_parser("compare", help="simulate several policies")
    _add_workload_args(c)
    c.add_argument("--policies", default=None,
                   help="comma-separated policy keys (default: the paper's nine)")
    c.set_defaults(fn=cmd_compare)

    f = sub.add_parser("figures", help="print every paper figure")
    _add_workload_args(f)
    f.set_defaults(fn=cmd_figures)

    t = sub.add_parser("tables", help="print Tables 1-2")
    _add_workload_args(t)
    t.set_defaults(fn=cmd_tables)

    a = sub.add_parser("analyze", help="workload characterization summary")
    _add_workload_args(a)
    a.set_defaults(fn=cmd_analyze)

    e = sub.add_parser("export", help="simulate and export metrics")
    _add_workload_args(e)
    e.add_argument("--policies", default=None,
                   help="comma-separated policy keys (default: the nine)")
    e.add_argument("--json", default=None, help="suite metrics JSON path")
    e.add_argument("--csv", default=None, help="suite metrics CSV path")
    e.add_argument("--per-job", default=None,
                   help="per-job CSV path prefix (one file per policy)")
    e.set_defaults(fn=cmd_export)

    sw = sub.add_parser(
        "sweep",
        help="run a campaign spec: parallel sweep with on-disk caching",
    )
    sw.add_argument("spec", help="campaign spec JSON path (see README)")
    _add_cell_run_args(sw)
    sw.add_argument("--json", default=None, help="aggregate JSON output path")
    sw.add_argument("--csv", default=None, help="aggregate CSV output path")
    sw.add_argument("--stats", action="store_true",
                    help="print the run-stats block (cache hits, cell-time "
                         "percentiles, worker utilization, recovery counts)")
    _add_robustness_args(sw)
    sw.add_argument("--keep-going", action="store_true",
                    help="on terminal cell failures, aggregate what "
                         "completed (with an explicit 'incomplete' block) "
                         "instead of raising")
    sw.set_defaults(fn=cmd_sweep)

    ca = sub.add_parser(
        "cache", help="inspect and repair the campaign cell cache",
    )
    casub = ca.add_subparsers(dest="cache_command", required=True)

    cv = casub.add_parser(
        "verify", help="checksum-verify every cache entry (read-only)",
    )
    cv.add_argument("--cache-dir", default=None,
                    help="cache root (default ~/.cache/repro-campaign)")
    cv.add_argument("--json", action="store_true",
                    help="print the audit as JSON")
    cv.set_defaults(fn=cmd_cache_verify)

    cp = casub.add_parser(
        "prune", help="remove corrupt entries and reap tmp orphans",
    )
    cp.add_argument("--cache-dir", default=None,
                    help="cache root (default ~/.cache/repro-campaign)")
    cp.add_argument("--quarantine", action="store_true",
                    help="move corrupt entries to <root>/quarantine/ "
                         "instead of deleting them")
    cp.set_defaults(fn=cmd_cache_prune)

    pp = sub.add_parser(
        "paper",
        help="declarative paper-artifact pipeline (figures 3-19, tables 1-2)",
    )
    ppsub = pp.add_subparsers(dest="paper_command", required=True)

    pb = ppsub.add_parser(
        "build",
        help="build paper artifacts through the content-addressed cache",
    )
    pb.add_argument("--only", default=None,
                    help="comma-separated artifact ids (default: all; "
                         "see `repro paper list`)")
    pb.add_argument("--scale", type=float, default=A.DEFAULT_SCALE,
                    help="synthetic trace scale (1.0 = the full trace)")
    pb.add_argument("--seed", type=int, default=A.DEFAULT_SEED,
                    help="generator seed")
    _add_cell_run_args(pb, "suppress per-cell and per-artifact lines")
    pb.add_argument("--out-dir", default="paper-artifacts",
                    help="output directory for renderings + manifest.json")
    pb.add_argument("--check", action="store_true",
                    help="run each artifact's qualitative shape checks")
    pb.add_argument("--stats", action="store_true",
                    help="print the run-stats block (cache hits, cell-time "
                         "percentiles, worker utilization, recovery counts)")
    _add_robustness_args(pb)
    pb.set_defaults(fn=cmd_paper_build)

    pl = ppsub.add_parser("list", help="list registered paper artifacts")
    pl.set_defaults(fn=cmd_paper_list)

    pd = ppsub.add_parser(
        "diff",
        help="verify outputs against manifest.json, or compare manifests",
    )
    pd.add_argument("--out-dir", default="paper-artifacts",
                    help="build directory holding manifest.json")
    pd.add_argument("--against", default=None,
                    help="second manifest.json to compare against")
    pd.set_defaults(fn=cmd_paper_diff)

    mx = sub.add_parser(
        "matrix",
        help="policy x reference-order fairness matrix (cached sweep)",
    )
    mx.add_argument("--policies", default=None,
                    help="comma-separated policy keys "
                         "(default: the registry's matrix frontier)")
    mx.add_argument("--orders", default=None,
                    help="comma-separated hybrid-FST reference orders "
                         "(default: fairshare,fcfs,shortest-first)")
    mx.add_argument("--scenarios", default=None,
                    help="comma-separated scenario names "
                         "(default: cplant-baseline)")
    mx.add_argument("--scale", type=float, default=0.05,
                    help="scenario trace scale")
    mx.add_argument("--seed", type=int, default=7, help="generator seed")
    _add_cell_run_args(mx)
    mx.add_argument("--out", default=None,
                    help="write the rendered matrix to a text file")
    mx.add_argument("--json", default=None,
                    help="write the matrix document as sorted JSON")
    mx.set_defaults(fn=cmd_matrix)

    sv = sub.add_parser(
        "serve",
        help="run the multi-tenant scheduler server (line-JSON over TCP)",
    )
    sv.add_argument("--host", default="127.0.0.1", help="bind address")
    sv.add_argument("--port", type=int, default=0,
                    help="bind port (0 = ephemeral, announced on stdout)")
    sv.add_argument("--policy", default="easy.fairshare",
                    help="scheduling policy for the shared simulation")
    sv.add_argument("--system-size", type=int, default=1024,
                    help="cluster size in nodes")
    sv.add_argument("--max-pending", type=int, default=512,
                    help="per-tenant pending-buffer bound (backpressure)")
    sv.add_argument("--estimate-mode", default=None,
                    choices=["perfect", "wcl"], help="FST estimate mode")
    sv.add_argument("--epsilon", type=float, default=None,
                    help="fairness tolerance (seconds)")
    sv.set_defaults(fn=cmd_serve)

    ls = sub.add_parser("policies", help="list known policies")
    ls.set_defaults(fn=cmd_policies)

    sc = sub.add_parser("scenarios", help="the named workload scenario library")
    scsub = sc.add_subparsers(dest="scenario_command", required=True)

    sl = scsub.add_parser("list", help="list registered scenarios")
    sl.set_defaults(fn=cmd_scenarios_list)

    sd = scsub.add_parser("describe", help="show one scenario's full recipe")
    sd.add_argument("name")
    sd.set_defaults(fn=cmd_scenarios_describe)

    def _add_scenario_build_args(sp) -> None:
        sp.add_argument("name")
        sp.add_argument("--seed", type=int, default=7, help="scenario seed")
        sp.add_argument("--set", action="append", metavar="PARAM=VALUE",
                        help="override a scenario parameter (repeatable)")

    sr = scsub.add_parser(
        "run", help="build a scenario and run policies on it",
    )
    _add_scenario_build_args(sr)
    sr.add_argument("--policies", default=None,
                    help="comma-separated policy keys "
                         "(default: cplant24.nomax.all)")
    sr.set_defaults(fn=cmd_scenarios_run)

    se = scsub.add_parser("export", help="write a scenario workload as SWF")
    _add_scenario_build_args(se)
    se.add_argument("--out", default=None,
                    help="output path (default <scenario>.swf)")
    se.set_defaults(fn=cmd_scenarios_export)

    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    setup_logging(args.verbose - args.log_quiet)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # stdout went away mid-print (e.g. `repro sweep ... | head`);
        # redirect to devnull so the interpreter's shutdown flush doesn't
        # print a second traceback, and exit like a killed pipe consumer
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
