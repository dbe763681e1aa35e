"""Scenario library: named, sweepable workload regimes.

``get_scenario("heavy-tail-runtimes").build(seed=7, alpha=1.3)`` yields a
:class:`~repro.workload.model.Workload`; the same names slot into campaign
specs (``{"kind": "scenario", "scenario": ...}`` workloads or the
top-level ``"scenarios"`` list) and the ``repro scenarios`` CLI.  See
docs/SCENARIOS.md for the catalog.
"""

from .base import (
    Param,
    Scenario,
    ScenarioParam,
    TransformStep,
    all_scenarios,
    get_scenario,
    register,
    scenario_names,
)
from . import library  # noqa: F401  (imports populate the registry)

__all__ = [
    "Param",
    "Scenario",
    "ScenarioParam",
    "TransformStep",
    "all_scenarios",
    "get_scenario",
    "register",
    "scenario_names",
]
