"""The repository benchmark: policy-sweep, paper-build and service-stream.

Run from the repository root::

    python3 perfbench/run.py --workload policy-sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, in turn

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json, measured with
tracing off, their times in CPU seconds at the nominal host speed of
``calib.py``; with ``--trace 1`` they are its per-layer metrics, from an
untraced pass followed by a traced one.  A traced run also writes its
spans, counts and per-layer split to ``.perfbench/trace-<workload>.json``.
Any failed check makes the exit status 1.  README.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import traceback
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: generator seeds with recorded digests: the default, and one held out
#: for confirming claims (never used while tuning a change)
DEFAULT_GEN_SEED = 7
HELD_OUT_GEN_SEED = 11


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["policy-sweep", "paper-build", "service-stream",
                             "all"])
    ap.add_argument("--seed", type=int, default=1,
                    help="run seed: policy order, snapshot phase and "
                         "what-if positions")
    ap.add_argument("--gen-seed", type=int, default=DEFAULT_GEN_SEED,
                    help=f"trace generator seed (held out: {HELD_OUT_GEN_SEED})")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measurement window; a workload repeats while "
                         "the next repetition fits in it")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", type=float, default=None,
                    help="trace scale override (smoke tests only; digests "
                         "are recorded at the default scales)")
    return ap.parse_args(argv)


def declared(section: str):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in doc[section]]


def run_one(name: str, args) -> dict:
    import workloads

    WORK.mkdir(exist_ok=True)
    ctx = workloads.Context(
        seed=args.seed, gen_seed=args.gen_seed, seconds=args.seconds,
        trace=bool(args.trace), work=WORK, scale=args.scale,
    )
    out = workloads.WORKLOADS[name](ctx)
    e2e = out.e2e
    if ctx.trace:
        out.layers.update({
            "raw.cpu_s": e2e["raw_cpu_s"],
            "raw.wall_s": e2e["wall_s"],
            "host.slice_ms": workloads.ms(ctx.cal.slice_s()),
        })
        metrics, section = out.layers, "per_layer"
        _check_counts(name, ctx, out)
        (WORK / f"trace-{name}.json").write_text(json.dumps(
            {"workload": name, "seed": ctx.seed, "gen_seed": ctx.gen_seed,
             "layers": out.layers, **out.trace_doc}, indent=1) + "\n")
    else:
        setup, raw_setup = workloads.setup_s(ctx, name)
        metrics, section = {**e2e, "setup_s": setup}, "end_to_end"
        print(f"perfbench: {name}: unscaled cpu_s {e2e['raw_cpu_s']:.3f}, "
              f"setup_s {raw_setup:.3f}; wall_s {e2e['wall_s']:.3f}; "
              f"reference slice {workloads.ms(ctx.cal.slice_s()):.3f} ms "
              f"CPU (mean of {len(ctx.cal.slices)})", file=sys.stderr)
    for failure in out.failures:
        print(f"perfbench: FAILED {name}: {failure}", file=sys.stderr)
    return {
        "correct": not out.failures,
        "attempted": max(1, out.attempted),
        "failed": len(out.failures),
        "metrics": {
            metric: {"value": float(metrics.get(metric, 0.0)), "unit": unit}
            for metric, unit in declared(section)
        },
    }


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def _check_counts(name: str, ctx, out) -> None:
    """Counts are exact: a second traced run of the same code and inputs
    must reproduce the first one's counts.  (The policy order does not
    change them; the what-if positions of service-stream do.)"""
    run_seed = ctx.seed if name == "service-stream" else "any"
    path = WORK / (f"counts-{name}-src{_source_digest()}-gen{ctx.gen_seed}"
                   f"-scale{ctx.scale}-seed{run_seed}.json")
    counts = out.trace_doc["counts"]
    if path.exists():
        out.check(json.loads(path.read_text()) == counts,
                  f"counts differ from the previous traced run ({path.name})")
    else:
        path.write_text(json.dumps(counts, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    calib.pin_to_one_cpu()
    names =(["policy-sweep", "paper-build", "service-stream"]
             if args.workload == "all" else [args.workload])
    ok = True
    for name in names:
        try:
            result = run_one(name, args)
        except Exception:
            traceback.print_exc()
            result = {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
