"""Simulation throughput per policy: how fast each scheduler chews
through a fixed trace, timed with pytest-benchmark (the end-to-end
benchmark of every registered policy is perfbench's ``policy-sweep``)."""

import pytest

from repro.experiments.runner import run_policy
from repro.sched.registry import PAPER_POLICIES
from repro.workload.generator import GeneratorConfig, generate_cplant_workload


@pytest.fixture(scope="module")
def timing_trace():
    # small and fixed regardless of REPRO_BENCH_SCALE: these runs are
    # repeated by the timer
    return generate_cplant_workload(GeneratorConfig(scale=0.05, weeks=5), seed=13)


@pytest.mark.parametrize("policy", PAPER_POLICIES)
def test_policy_simulation_speed(benchmark, timing_trace, policy):
    run = benchmark.pedantic(
        run_policy, args=(timing_trace, policy), rounds=2, iterations=1,
    )
    assert run.summary.n_jobs == len(timing_trace)
