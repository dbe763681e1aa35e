"""The policy x reference-order fairness matrix.

The paper evaluates its nine policies against one definition of "fair"
(the fairshare reference order).  This module crosses a policy frontier
— the paper baseline, the classic FCFS/EASY reference points, and the
size-based extension policies — with every hybrid-FST reference
order, answering *which policy is fair under whose definition
of fair*.

One simulation per (scenario, policy) cell suffices: reference orders
are observers, not schedulers, so every order's FST series is recorded
from the same run (see ``RunOptions.reference_orders``).  Cells flow
through the campaign executor and its content-addressed cache, and the
rendered table is deterministic byte-for-byte, which the CI
``matrix-smoke`` job asserts by building it twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..campaign.cache import CampaignCache
from ..campaign.executor import CellResult, ProgressFn, run_cells
from ..campaign.spec import CampaignCell, WorkloadSpec
from ..metrics.fairness import REFERENCE_ORDERS
from ..sched.registry import MATRIX_POLICIES, get_policy
from .export import RecordRun
from .runner import RunOptions

#: the reference orders of the default matrix (all of them, in the order
#: the columns render)
MATRIX_REFERENCE_ORDERS: Tuple[str, ...] = tuple(REFERENCE_ORDERS)

#: the default scenario: the paper's baseline trace recipe
MATRIX_SCENARIOS: Tuple[str, ...] = ("cplant-baseline",)


@dataclass(frozen=True)
class MatrixConfig:
    """One fairness-matrix sweep, fully determined."""

    policies: Tuple[str, ...] = MATRIX_POLICIES
    reference_orders: Tuple[str, ...] = MATRIX_REFERENCE_ORDERS
    scenarios: Tuple[str, ...] = MATRIX_SCENARIOS
    scale: float = 0.05
    seed: int = 7

    def __post_init__(self) -> None:
        object.__setattr__(self, "policies", tuple(self.policies))
        object.__setattr__(
            self, "reference_orders", tuple(self.reference_orders)
        )
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        if not self.policies:
            raise ValueError("matrix needs at least one policy")
        if not self.reference_orders:
            raise ValueError("matrix needs at least one reference order")
        if not self.scenarios:
            raise ValueError("matrix needs at least one scenario")
        for key in self.policies:
            get_policy(key)
        for name in self.reference_orders:
            if name not in REFERENCE_ORDERS:
                raise KeyError(
                    f"unknown reference order (FST basis) {name!r}; "
                    f"known: {', '.join(sorted(REFERENCE_ORDERS))}"
                )

    def options(self) -> RunOptions:
        # the shared parser pins "fairshare" (always evaluated — it is the
        # primary fairness block) first for a canonical cell identity
        return RunOptions.from_mapping(
            {"reference_orders": self.reference_orders}
        )

    def cells(self) -> List[CampaignCell]:
        """The sweep grid, in deterministic (scenario, policy) order."""
        options = self.options()
        out: List[CampaignCell] = []
        for scenario in self.scenarios:
            wspec = WorkloadSpec(
                kind="scenario",
                scenario=scenario,
                params=(("scale", self.scale),),
                seed=self.seed,
            )
            wspec.validate()
            for policy in self.policies:
                out.append(CampaignCell(
                    workload=wspec, seed=self.seed, policy=policy,
                    options=options,
                ))
        return out


#: scenario -> policy -> reference order -> fairness block
MatrixTables = Dict[str, Dict[str, Dict[str, Dict[str, float]]]]


def run_matrix(
    config: Optional[MatrixConfig] = None,
    jobs: int = 1,
    cache: Optional[CampaignCache] = None,
    force: bool = False,
    progress: Optional[ProgressFn] = None,
) -> Tuple[List[CellResult], MatrixTables]:
    """Execute a fairness-matrix sweep through the campaign executor.

    Returns the executed cells and, per scenario, the table
    :func:`matrix_from_suite` projects from their metric records (the
    same projection the registered ``matrix`` artifact renders).
    """
    cfg = config or MatrixConfig()
    results = run_cells(
        cfg.cells(), jobs=jobs, cache=cache, force=force, progress=progress
    )
    suites: Dict[str, Dict[str, RecordRun]] = {}
    for res in results:
        suite = suites.setdefault(str(res.cell.workload.scenario), {})
        suite[res.cell.policy] = RecordRun(res.cell.policy, res.metrics)
    tables = {
        scenario: matrix_from_suite(suite, cfg.reference_orders)
        for scenario, suite in suites.items()
    }
    return results, tables


# --------------------------------------------------------------------------
# rendering (shared by the CLI and the registered artifact)
# --------------------------------------------------------------------------

def _fairness_block(stats: object) -> Dict[str, float]:
    """Normalize a fairness block: FairnessStats or its as_dict() form."""
    as_dict = getattr(stats, "as_dict", None)
    return dict(as_dict()) if callable(as_dict) else dict(stats)


def matrix_from_suite(
    suite: Mapping[str, object],
    reference_orders: Sequence[str],
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """policy -> order -> fairness block, from run-like suite objects
    (``PolicyRun`` or ``RecordRun``) that carry ``fairness_by_order``."""
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for policy, run in suite.items():
        rows = run.fairness_by_order
        if not rows:
            raise ValueError(
                f"run for {policy!r} has no fairness_by_order block; "
                f"simulate with RunOptions(reference_orders=...)"
            )
        out[policy] = {
            o: _fairness_block(rows[o]) for o in reference_orders
        }
    return out


def _cell_text(block: Mapping[str, float]) -> str:
    pct = 100.0 * float(block["percent_unfair"])
    hours = float(block["average_miss_time"]) / 3600.0
    return f"{pct:5.1f}% {hours:8.2f}h"


def render_matrix_rows(
    rows: Mapping[str, Mapping[str, Mapping[str, float]]],
    reference_orders: Sequence[str],
    policies: Optional[Sequence[str]] = None,
) -> List[str]:
    """The policy-rows block of one matrix table (no scenario header)."""
    keys = list(policies) if policies is not None else sorted(rows)
    width = max(len("policy"), *(len(k) for k in keys))
    col = max(len(_cell_text({"percent_unfair": 0, "average_miss_time": 0})),
              *(len(o) for o in reference_orders))
    head = " | ".join(
        [f"{'policy':<{width}}"] + [f"{o:>{col}}" for o in reference_orders]
    )
    rule = "-+-".join(["-" * width] + ["-" * col] * len(reference_orders))
    out = [head, rule]
    for key in keys:
        cells = [
            f"{_cell_text(rows[key][o]):>{col}}" for o in reference_orders
        ]
        out.append(" | ".join([f"{key:<{width}}"] + cells))
    return out


def render_matrix(
    table: Mapping[str, Mapping[str, Mapping[str, Mapping[str, float]]]],
    reference_orders: Sequence[str],
    policies: Optional[Sequence[str]] = None,
    scenarios: Optional[Sequence[str]] = None,
) -> str:
    """The full fairness matrix as deterministic text."""
    names = list(scenarios) if scenarios is not None else sorted(table)
    out = [
        "policy x reference-order fairness matrix",
        "(cell: % of jobs missing their FST | average miss time, hours)",
    ]
    for scenario in names:
        out.append("")
        out.append(f"scenario: {scenario}")
        out.extend(
            render_matrix_rows(table[scenario], reference_orders, policies)
        )
    return "\n".join(out)
