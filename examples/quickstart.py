#!/usr/bin/env python3
"""Quickstart: simulate the CPlant baseline scheduler on a synthetic trace.

Generates a 5%-scale calibrated CPlant/Ross workload, runs the paper's
baseline policy (no-guarantee backfilling + fairshare priority + 24 h
starvation queue), and prints the user, system, and fairness metrics.

Run:  python examples/quickstart.py
"""

from repro import GeneratorConfig, api, generate_cplant_workload


def main() -> None:
    # a ~660-job slice of the trace; same offered-load profile as the paper
    workload = generate_cplant_workload(GeneratorConfig(scale=0.05), seed=42)
    print(workload.describe())
    print()

    run = api.run(policy="cplant24.nomax.all", workload=workload)

    s, f = run.summary, run.fairness
    print("baseline CPlant scheduler (cplant24.nomax.all)")
    print(f"  average wait time      : {s.avg_wait:>12,.0f} s")
    print(f"  average turnaround     : {s.avg_turnaround:>12,.0f} s   (Eq. 1)")
    print(f"  average slowdown       : {s.avg_slowdown:>12,.1f}")
    print(f"  utilization            : {100 * s.utilization:>11.1f} %   (Eq. 2)")
    print(f"  loss of capacity       : {100 * run.loss_of_capacity:>11.2f} %   (Eq. 4)")
    print()
    print("fairness (hybrid fairshare fair-start-time metric, Section 4.1)")
    print(f"  jobs missing their FST : {100 * f.percent_unfair:>11.2f} %")
    print(f"  average miss time      : {f.average_miss_time:>12,.0f} s   (Eq. 5)")
    print(f"  avg miss of unfair jobs: {f.average_miss_of_unfair:>12,.0f} s")


if __name__ == "__main__":
    main()
