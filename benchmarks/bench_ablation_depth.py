"""Ablation: reservation depth sweep (0 = no guarantee ... inf = consdyn).

The paper's introduction notes production schedulers sit between
aggressive and conservative by reserving for the first n queued jobs;
this sweep walks that spectrum under the fairshare priority and shows the
fairness/packing trade the nine named policies sample endpoints of.
"""

import math

import pytest

from repro.core.cluster import Cluster
from repro.core.engine import Engine, KillPolicy
from repro.experiments.config import BenchConfig
from repro.experiments.runner import derive_policy_run, metric_observers
from repro.sched.depthk import DepthKScheduler
from repro.workload.generator import GeneratorConfig, generate_cplant_workload

DEPTHS = (0, 1, 2, 4, 16, math.inf)


@pytest.fixture(scope="module")
def trace():
    cfg = BenchConfig.from_env()
    return generate_cplant_workload(
        GeneratorConfig(scale=min(cfg.scale, 0.2)), seed=cfg.seed
    )


@pytest.fixture(scope="module")
def sweep(trace):
    out = {}
    for depth in DEPTHS:
        sched = DepthKScheduler(depth=depth)
        res = Engine(
            Cluster(trace.system_size), sched, trace.jobs,
            observers=metric_observers("perfect"),
            kill_policy=KillPolicy.IF_NEEDED,
        ).run()
        run = derive_policy_run(sched.name, res)
        out[depth] = (run.fairness, run.summary, run.loss_of_capacity)
    return out


def test_ablation_reservation_depth(benchmark, sweep, emit):
    data = benchmark(lambda: {d: s[0].percent_unfair for d, s in sweep.items()})
    lines = ["Ablation: reservation depth (fairshare priority)",
             "depth  %unfair  avg_miss      TAT    LOC%"]
    for d, (st, summ, loc) in sweep.items():
        label = "inf" if math.isinf(d) else str(int(d))
        lines.append(
            f"{label:>5}  {100 * st.percent_unfair:6.2f}%  "
            f"{st.average_miss_time:8,.0f}  {summ.avg_turnaround:8,.0f}  "
            f"{100 * loc:5.2f}%"
        )
    emit("ablation_depth", "\n".join(lines))
    assert len(data) == len(DEPTHS)
