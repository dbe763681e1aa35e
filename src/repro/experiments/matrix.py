"""The policy x reference-order fairness matrix.

The paper evaluates its nine policies against one definition of "fair"
(the fairshare reference order).  This module crosses a policy frontier
— the paper baseline, the classic FCFS/EASY reference points, and the
size-based extension policies — with every hybrid-FST reference
order, answering *which policy is fair under whose definition
of fair*.

One simulation per (scenario, policy) cell suffices: reference orders
are observers, not schedulers, so every order's FST series is recorded
from the same run (see ``RunOptions.reference_orders``).  ``repro
matrix`` runs those cells as a campaign (``api.sweep``, with its
content-addressed cache) and this module projects and renders them; the
rendered table is deterministic byte-for-byte, which the CI
``matrix-smoke`` job asserts by building it twice.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..metrics.fairness import REFERENCE_ORDERS

#: the reference orders of the default matrix (all of them, in the order
#: the columns render)
MATRIX_REFERENCE_ORDERS: Tuple[str, ...] = tuple(REFERENCE_ORDERS)

#: the default scenario: the paper's baseline trace recipe
MATRIX_SCENARIOS: Tuple[str, ...] = ("cplant-baseline",)


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
