"""Ablation: sweep the maximum-runtime threshold (24/48/72/120 h).

The paper fixes 72 h; this sweep asks how sensitive the fairness and
packing gains are to the cut-off.  Expected: tighter limits keep improving
LOC/turnaround (more preemption points) with diminishing returns, at the
price of more chunks.
"""

import pytest

from repro.core.cluster import Cluster
from repro.core.engine import Engine, KillPolicy
from repro.experiments.config import BenchConfig
from repro.experiments.runner import derive_policy_run, metric_observers
from repro.sched.noguarantee import NoGuaranteeScheduler
from repro.workload.generator import GeneratorConfig, generate_cplant_workload
from repro.workload.transforms import split_by_runtime_limit

HOUR = 3600.0
LIMITS = (24, 48, 72, 120)


@pytest.fixture(scope="module")
def trace():
    cfg = BenchConfig.from_env()
    return generate_cplant_workload(
        GeneratorConfig(scale=min(cfg.scale, 0.2)), seed=cfg.seed
    )


@pytest.fixture(scope="module")
def sweep(trace):
    out = {}
    for hours in LIMITS:
        wl = split_by_runtime_limit(trace, hours * HOUR)
        res = Engine(
            Cluster(wl.system_size), NoGuaranteeScheduler(), wl.jobs,
            observers=metric_observers("perfect"),
            kill_policy=KillPolicy.IF_NEEDED,
        ).run()
        run = derive_policy_run(f"cplant24.{hours}max.all", res, split=True)
        out[hours] = (run.fairness, run.loss_of_capacity, len(res.jobs))
    return out


def test_ablation_max_runtime(benchmark, sweep, emit):
    benchmark(lambda: {h: s[0].average_miss_time for h, s in sweep.items()})
    lines = ["Ablation: maximum-runtime threshold (baseline scheduler)",
             "limit_h  %unfair  avg_miss   LOC%   scheduler_jobs"]
    for h, (st, loc, njobs) in sweep.items():
        lines.append(
            f"{h:7d}  {100 * st.percent_unfair:6.2f}%  {st.average_miss_time:8,.0f}"
            f"  {100 * loc:5.2f}%  {njobs:8d}"
        )
    emit("ablation_maxrt", "\n".join(lines))
    # tighter limits mean more scheduler-visible jobs
    counts = [sweep[h][2] for h in LIMITS]
    assert counts == sorted(counts, reverse=True)
