#!/usr/bin/env python3
"""Workload characterization: Tables 1-2 and Figures 3-7.

Generates the full-scale synthetic CPlant/Ross trace, prints the category
tables against the paper's published numbers, the weekly offered-load /
utilization series under the baseline policy, and the estimate-quality
views.  Optionally exports the trace as SWF for use with other simulators.

Run:  python examples/workload_analysis.py [--swf-out trace.swf]
"""

import argparse

from repro import GeneratorConfig, api, generate_cplant_workload, write_swf
from repro.artifacts import BASELINE, ArtifactInputs, get_artifact


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--swf-out", default=None,
                    help="also write the trace in Standard Workload Format")
    args = ap.parse_args()

    workload = generate_cplant_workload(
        GeneratorConfig(scale=args.scale), seed=args.seed
    )
    print(workload.describe())
    print()

    for table in ("table1", "table2"):
        print(get_artifact(table).build_text(ArtifactInputs({}, workload)))
        print()

    print("simulating the baseline policy for Figure 3 ...")
    baseline = api.run(policy=BASELINE, workload=workload)
    inputs = ArtifactInputs({BASELINE: baseline}, workload)
    print("\n\n".join(
        get_artifact(fig).build_text(inputs)
        for fig in ("fig03", "fig04", "fig05", "fig06", "fig07")
    ))

    if args.swf_out:
        write_swf(workload, args.swf_out)
        print(f"\nwrote {args.swf_out} (SWF v2)")


if __name__ == "__main__":
    main()
