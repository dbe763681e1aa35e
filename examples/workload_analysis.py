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
from repro.experiments import figures as F
from repro.experiments.tables import (
    render_table1,
    render_table2,
    table1_job_counts,
    table2_proc_hours,
)


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

    print(render_table1(table1_job_counts(workload)))
    print()
    print(render_table2(table2_proc_hours(workload)))
    print()

    print("simulating the baseline policy for Figure 3 ...")
    baseline = api.run(policy="cplant24.nomax.all", workload=workload)
    print(F.render_fig03(F.fig03_weekly_load(baseline, workload)))
    print()
    print(F.render_fig04(F.fig04_runtime_vs_nodes(workload)))
    print()
    print(F.render_fig05(F.fig05_estimates(workload)))
    print()
    print(F.render_fig06(F.fig06_overestimation_vs_runtime(workload)))
    print()
    print(F.render_fig07(F.fig07_overestimation_vs_nodes(workload)))

    if args.swf_out:
        write_swf(workload, args.swf_out)
        print(f"\nwrote {args.swf_out} (SWF v2)")


if __name__ == "__main__":
    main()
