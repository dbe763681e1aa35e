"""Scenario library sweep: fairness across workload regimes.

Builds every registered scenario at bench scale and runs the CPlant
baseline policy plus conservative backfilling on each, printing the
cross-regime fairness picture the paper could not draw from its single
trace: which regimes make the baseline unfair, and whether conservative
backfilling's advantage survives them.  Also times scenario construction
(generation + transform pipeline) separately from simulation.
"""

from __future__ import annotations

import time

from repro import api
from repro.experiments.config import BenchConfig
from repro.scenarios import all_scenarios

POLICIES = ("cplant24.nomax.all", "cons.nomax")

#: scenarios are cheaper than the full calibrated trace study; cap the
#: scale so ten regimes x two policies stay in benchmark budget
MAX_SCALE = 0.1


def _bench_params(sc, scale: float) -> dict:
    defaults = sc.param_defaults()
    if "scale" in defaults:
        return {"scale": scale}
    if "n_jobs" in defaults:
        return {"n_jobs": max(200, int(defaults["n_jobs"] * scale * 10))}
    return {}


def test_scenario_sweep(emit):
    cfg = BenchConfig.from_env()
    scale = min(cfg.scale, MAX_SCALE)
    lines = [
        f"scenario sweep — scale={scale}, seed={cfg.seed}, "
        f"policies={', '.join(POLICIES)}",
        f"{'scenario':<24}{'jobs':>6}{'build':>8}{'sim':>8}"
        f"{'%unfair base':>14}{'%unfair cons':>14}{'TAT ratio':>11}",
    ]
    for sc in all_scenarios():
        params = _bench_params(sc, scale)
        t0 = time.perf_counter()
        wl = sc.build(seed=cfg.seed, **params)
        t_build = time.perf_counter() - t0
        t0 = time.perf_counter()
        suite = api.compare(POLICIES, workload=wl, options=dict(sc.options))
        t_sim = time.perf_counter() - t0
        base, cons = (suite[k] for k in POLICIES)
        ratio = (cons.average_turnaround / base.average_turnaround
                 if base.average_turnaround > 0 else float("nan"))
        lines.append(
            f"{sc.name:<24}{len(wl):>6}{t_build:>7.2f}s{t_sim:>7.2f}s"
            f"{100 * base.percent_unfair:>13.2f}%"
            f"{100 * cons.percent_unfair:>13.2f}%{ratio:>11.2f}"
        )
        # every policy must schedule every trace job in every regime
        assert base.summary.n_jobs == cons.summary.n_jobs > 0
    emit("bench_scenarios", "\n".join(lines))
