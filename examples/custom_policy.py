#!/usr/bin/env python3
"""Writing a custom scheduling policy against the public API.

Implements a widest-job-first EASY backfilling scheduler — wide jobs are
the ones the paper shows being treated unfairly, so give them the head
reservation outright — and evaluates it with the same metrics as the
paper's policies (hybrid FST fairness, turnaround, loss of capacity).

This demonstrates the extension points a downstream user gets:

* subclass :class:`repro.BaseScheduler` (or any concrete scheduler),
* plug in an ordering policy,
* attach the standard observers and compare with the registry policies.

Run:  python examples/custom_policy.py
"""

from repro import (
    Cluster,
    Engine,
    GeneratorConfig,
    HybridFSTObserver,
    LossOfCapacityObserver,
    fairness_stats,
    api,
    generate_cplant_workload,
    summarize,
)
from repro.metrics.loc import loc_of
from repro.sched.easy import EasyBackfillScheduler
from repro.sched.queues import widest_first_order


class WidestFirstEasyScheduler(EasyBackfillScheduler):
    """EASY backfilling where the queue is ordered widest-job-first
    (submit time breaks ties), so the head reservation always protects the
    hardest-to-place job."""

    def __init__(self, **kw) -> None:
        super().__init__(priority="fcfs", **kw)
        self.ordering = widest_first_order
        self.name = "easy.widest-first"


def evaluate_custom(workload):
    scheduler = WidestFirstEasyScheduler()
    fst_obs = HybridFSTObserver()
    loc_obs = LossOfCapacityObserver()
    engine = Engine(
        Cluster(workload.system_size),
        scheduler,
        workload.jobs,
        observers=[fst_obs, loc_obs],
    )
    result = engine.run()
    return (
        summarize(result),
        fairness_stats(result.jobs, result.fst("hybrid")),
        loc_of(result),
    )


def main() -> None:
    workload = generate_cplant_workload(GeneratorConfig(scale=0.08), seed=21)
    print(workload.describe())
    print()

    summary, fairness, loc = evaluate_custom(workload)
    baseline = api.run(policy="cplant24.nomax.all", workload=workload)

    header = f"{'policy':<24}{'%unfair':>9}{'avg miss':>12}{'avg TAT':>12}{'LOC%':>8}"
    print(header)
    print(
        f"{'easy.widest-first':<24}{100 * fairness.percent_unfair:>8.2f}%"
        f"{fairness.average_miss_time:>12,.0f}{summary.avg_turnaround:>12,.0f}"
        f"{100 * loc:>7.2f}%"
    )
    print(
        f"{'cplant24.nomax.all':<24}{100 * baseline.percent_unfair:>8.2f}%"
        f"{baseline.average_miss_time:>12,.0f}"
        f"{baseline.summary.avg_turnaround:>12,.0f}"
        f"{100 * baseline.loss_of_capacity:>7.2f}%"
    )
    print()
    print("widest-first protects wide jobs aggressively; watch what it does")
    print("to the turnaround of everyone else relative to the baseline.")


if __name__ == "__main__":
    main()
