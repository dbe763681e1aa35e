"""Experiment-scale configuration.

Benchmarks default to a reduced trace so the whole suite runs in minutes:

* ``REPRO_BENCH_SCALE`` — fraction of the full 13,236-job trace
  (default 0.2, about 2,600 jobs over ~7 weeks at the same offered load);
* ``REPRO_BENCH_FULL=1`` — the full 231-day trace;
* ``REPRO_BENCH_SEED`` — generator seed (default 7).

Tests use much smaller workloads and set their own parameters explicitly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..workload.generator import GeneratorConfig, generate_cplant_workload
from ..workload.model import Workload

DEFAULT_SCALE = 0.2
DEFAULT_SEED = 7


@dataclass(frozen=True)
class BenchConfig:
    scale: float
    seed: int

    @classmethod
    def from_env(cls) -> "BenchConfig":
        if os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0"):
            scale = 1.0
        else:
            scale = float(os.environ.get("REPRO_BENCH_SCALE", DEFAULT_SCALE))
        seed = int(os.environ.get("REPRO_BENCH_SEED", DEFAULT_SEED))
        return cls(scale=scale, seed=seed)


def bench_workload(config: BenchConfig | None = None) -> Workload:
    """The calibrated CPlant trace at the benchmark scale."""
    cfg = config or BenchConfig.from_env()
    return generate_cplant_workload(
        GeneratorConfig(scale=cfg.scale), seed=cfg.seed
    )
