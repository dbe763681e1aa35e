#!/usr/bin/env python3
"""The paper's full case study in miniature.

Runs all nine scheduling policies of Section 5.5 on a reduced synthetic
CPlant/Ross trace and prints the Figure 8/9/14/15/17/19 comparisons.

Run:  python examples/cplant_case_study.py [--scale 0.1] [--seed 7]
(scale 1.0 reproduces the full 13,236-job / 231-day study; takes minutes.)
"""

import argparse

from repro import PAPER_POLICIES, GeneratorConfig, api, generate_cplant_workload
from repro.artifacts import ArtifactInputs, get_artifact


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    workload = generate_cplant_workload(
        GeneratorConfig(scale=args.scale), seed=args.seed
    )
    print(workload.describe())
    print()

    suite = api.compare(PAPER_POLICIES, workload=workload, progress=True)
    print()

    inputs = ArtifactInputs(suite)
    for fig in ("fig08", "fig09", "fig14", "fig15", "fig17", "fig19"):
        print(get_artifact(fig).build_text(inputs))
        print()

    best = min(suite, key=lambda k: suite[k].average_miss_time)
    print(f"lowest average miss time: {best} "
          f"({suite[best].average_miss_time:,.0f} s)")
    print("paper's conclusion to compare against: 72 h runtime limits have "
          "the largest effect on fairness, loss of capacity, and turnaround.")


if __name__ == "__main__":
    main()
