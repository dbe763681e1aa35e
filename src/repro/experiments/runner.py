"""Run (workload x policy) simulations and bundle every metric the paper
reports.

One :class:`PolicyRun` carries everything Figures 8-19 need for one bar /
series, so a full policy suite is simulated once and each figure is a cheap
projection.  This module is the engine behind :func:`repro.api.run`; call
the facade rather than :func:`run_policy` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.cluster import Cluster
from ..core.engine import Engine, KillPolicy
from ..core.results import SimulationResult
from ..metrics.categories import average_miss_by_width, average_turnaround_by_width
from ..metrics.fairness import (
    FairnessStats,
    HybridFSTObserver,
    fairness_stats,
)
from ..metrics.loc import LossOfCapacityObserver, loc_of
from ..metrics.standard import (
    SummaryStats,
    average_slowdown,
    average_turnaround,
    average_wait,
    makespan,
    utilization,
)
from ..metrics.weekly import WeeklySeries, weekly_series
from ..sched.registry import get_policy
from ..workload.model import Workload
from ..workload.transforms import parent_view, split_by_runtime_limit


@dataclass
class PolicyRun:
    """One policy's simulation outcome plus the paper's derived metrics.

    ``metric_jobs`` is the per-trace-job view (chunk chains collapsed back
    to their original job), so user metrics are comparable across policies
    with and without runtime limits; ``result.jobs`` keeps the raw
    scheduler-visible jobs.
    """

    policy: str
    result: SimulationResult
    summary: SummaryStats
    fairness: FairnessStats
    loss_of_capacity: float
    miss_by_width: np.ndarray
    turnaround_by_width: np.ndarray
    metric_jobs: Optional[List] = None
    fst: Optional[Dict[int, float]] = None
    #: fairness recomputed against each requested reference order (the
    #: policy x reference-order matrix); populated only when a run asks
    #: for orders beyond the default fairshare basis
    fairness_by_order: Optional[Dict[str, FairnessStats]] = None

    @property
    def percent_unfair(self) -> float:
        return self.fairness.percent_unfair

    @property
    def average_miss_time(self) -> float:
        return self.fairness.average_miss_time

    @property
    def average_turnaround(self) -> float:
        return self.summary.avg_turnaround

    @property
    def weekly(self) -> WeeklySeries:
        """The Figure 3 weekly offered-load/utilization series, computed
        over the raw schedule (chunks count when and where they ran)."""
        return weekly_series(self.result.jobs, self.result.cluster_size)


@dataclass(frozen=True)
class RunOptions:
    """Engine options for one policy run, in canonical (hashable, picklable)
    form.

    Both execution paths share it: the serial :func:`run_policy` signature
    maps onto it 1:1, and the campaign subsystem embeds it in grid cells so
    a cell fully determines its simulation (the cache key hashes
    :meth:`identity`).  ``scheduler_overrides`` is a sorted tuple of pairs
    and ``kill_policy`` a :class:`KillPolicy` so equal options always
    compare (and hash) equal.
    """

    estimate_mode: str = "perfect"
    epsilon: float = 1.0
    kill_policy: KillPolicy = KillPolicy.IF_NEEDED
    scheduler_overrides: Tuple[Tuple[str, object], ...] = ()
    validate: bool = False
    #: hybrid-FST reference orders to evaluate; the first-position
    #: fairshare default is the paper's configuration and is deliberately
    #: *omitted* from :meth:`identity` so pre-existing cache keys (and the
    #: digest oracle) are untouched by the matrix extension
    reference_orders: Tuple[str, ...] = ("fairshare",)

    def __post_init__(self) -> None:
        if isinstance(self.kill_policy, str):
            object.__setattr__(
                self, "kill_policy", KillPolicy[self.kill_policy.upper()]
            )
        object.__setattr__(
            self,
            "scheduler_overrides",
            tuple(sorted(dict(self.scheduler_overrides).items())),
        )
        orders = self.reference_orders
        if isinstance(orders, str):
            orders = (orders,)
        object.__setattr__(self, "reference_orders", tuple(orders))

    #: mapping keys :meth:`from_mapping` understands ("overrides" is the
    #: accepted shorthand for "scheduler_overrides")
    MAPPING_KEYS = frozenset({
        "estimate_mode", "epsilon", "kill_policy", "scheduler_overrides",
        "overrides", "validate", "reference_orders",
    })

    @classmethod
    def from_mapping(
        cls,
        mapping: Optional[Mapping[str, object]] = None,
        **extra: object,
    ) -> "RunOptions":
        """Parse loosely-typed option data (JSON specs, CLI flags, request
        payloads) into canonical options, failing with a ``ValueError``
        that names the offending key.

        This is the single option-parsing path: the campaign spec, the
        fairness matrix, the artifact pipeline, and the service protocol
        all feed their mappings through here, so every surface rejects the
        same inputs with the same messages.  ``extra`` keyword pairs merge
        over ``mapping`` (caller overrides).
        """
        data: Dict[str, object] = {**dict(mapping or {}), **extra}
        unknown = sorted(set(data) - cls.MAPPING_KEYS)
        if unknown:
            raise ValueError(
                f"unknown run-option keys {unknown}; "
                f"known: {sorted(cls.MAPPING_KEYS)}"
            )

        estimate_mode = data.get("estimate_mode", "perfect")
        if estimate_mode not in ("perfect", "wcl"):
            raise ValueError(
                f"unknown estimate_mode {estimate_mode!r}; "
                f"known: 'perfect', 'wcl'"
            )

        raw_eps = data.get("epsilon", 1.0)
        try:
            epsilon = float(raw_eps)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            raise ValueError(
                f"epsilon must be a number, got {raw_eps!r}"
            ) from None

        kp = data.get("kill_policy", KillPolicy.IF_NEEDED)
        if isinstance(kp, str):
            try:
                kp = KillPolicy[kp.upper()]
            except KeyError:
                raise ValueError(
                    f"unknown kill_policy {kp!r}; "
                    f"known: {', '.join(k.name for k in KillPolicy)}"
                ) from None
        elif not isinstance(kp, KillPolicy):
            raise ValueError(
                f"kill_policy must be a KillPolicy name, got {kp!r}"
            )

        if "overrides" in data and "scheduler_overrides" in data:
            raise ValueError(
                "give either 'scheduler_overrides' or its shorthand "
                "'overrides', not both"
            )
        raw_ov = data.get("scheduler_overrides", data.get("overrides", ()))
        try:
            overrides = dict(raw_ov)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            raise ValueError(
                f"scheduler_overrides must be a mapping, got {raw_ov!r}"
            ) from None
        bad_keys = sorted(k for k in overrides if not isinstance(k, str))
        if bad_keys:
            raise ValueError(
                f"scheduler_overrides keys must be strings, got {bad_keys}"
            )

        validate = data.get("validate", False)
        if not isinstance(validate, bool):
            raise ValueError(f"validate must be a bool, got {validate!r}")

        raw_orders = data.get("reference_orders", ("fairshare",))
        if isinstance(raw_orders, str):
            raw_orders = (raw_orders,)
        try:
            orders = [str(o) for o in raw_orders]  # type: ignore[union-attr]
        except TypeError:
            raise ValueError(
                f"reference_orders must be a list of names, got {raw_orders!r}"
            ) from None
        from ..metrics.fairness import reference_order_names
        known = set(reference_order_names())
        bad_orders = sorted(set(orders) - known)
        if bad_orders:
            raise ValueError(
                f"unknown reference_orders {bad_orders}; "
                f"known: {sorted(known)}"
            )
        # fairshare (the paper's basis, always evaluated) pins first for a
        # canonical identity; the rest keep caller order, deduplicated
        canon = ("fairshare",) + tuple(
            dict.fromkeys(o for o in orders if o != "fairshare")
        )

        return cls(
            estimate_mode=str(estimate_mode),
            epsilon=epsilon,
            kill_policy=kp,
            scheduler_overrides=tuple(overrides.items()),
            validate=validate,
            reference_orders=canon,
        )

    def identity(self) -> Dict[str, object]:
        """JSON-safe canonical form (stable across processes and runs)."""
        out: Dict[str, object] = {
            "estimate_mode": self.estimate_mode,
            "epsilon": self.epsilon,
            "kill_policy": self.kill_policy.name,
            "scheduler_overrides": dict(self.scheduler_overrides),
            "validate": self.validate,
        }
        if self.reference_orders != ("fairshare",):
            out["reference_orders"] = list(self.reference_orders)
        return out

    def as_run_kwargs(self) -> Dict[str, object]:
        """This option set as :func:`run_policy` keyword arguments
        (overrides as the canonical tuple of pairs, which ``run_policy``
        accepts)."""
        return {
            "estimate_mode": self.estimate_mode,
            "epsilon": self.epsilon,
            "kill_policy": self.kill_policy,
            "scheduler_overrides": self.scheduler_overrides or None,
            "validate": self.validate,
            "reference_orders": self.reference_orders,
        }


def _collapse_chunk_fst(
    result_jobs, fst: Dict[int, float], split: bool
) -> Dict[int, float]:
    """FSTs per *trace* job: a chunk chain inherits its first chunk's FST."""
    if not split:
        return fst
    out: Dict[int, float] = {}
    for j in result_jobs:
        if not j.is_chunk:
            out[j.id] = fst[j.id]
        elif j.chunk_index == 0:
            out[j.parent_id] = fst[j.id]
    return out


def metric_observers(
    estimate_mode: str, reference_orders: Sequence[str] = ("fairshare",)
) -> List:
    """The metric observer stack every simulation carries, in order: the
    paper's fairshare-basis hybrid FST, loss of capacity, then one hybrid
    FST per extra reference order.

    Batch runs and live service sessions both attach exactly this stack,
    so the same trace digests identically on either path.
    """
    return [
        HybridFSTObserver(estimate_mode),
        LossOfCapacityObserver(),
        *(HybridFSTObserver(estimate_mode, basis=o)
          for o in reference_orders if o != "fairshare"),
    ]


def run_policy(
    workload: Workload,
    policy_key: str,
    estimate_mode: str = "perfect",
    epsilon: float = 1.0,
    kill_policy: KillPolicy = KillPolicy.IF_NEEDED,
    scheduler_overrides: Optional[Mapping[str, object]] = None,
    validate: bool = False,
    observers: Optional[Sequence] = None,
    reference_orders: Optional[Sequence[str]] = None,
) -> PolicyRun:
    """Simulate one named policy on a workload and derive all metrics.

    ``observers`` appends extra engine observers (e.g. a
    :class:`~repro.obs.trace.TraceObserver`) after the metric observers;
    observation must never change the result (the digest tests hold
    tracing to that).

    ``reference_orders`` evaluates the hybrid FST against additional
    "socially just" orders in the *same* simulation (observers are free to
    stack because they never influence scheduling); the primary
    ``fairness`` block always uses the paper's fairshare basis, and
    per-order stats land in :attr:`PolicyRun.fairness_by_order`.
    """
    spec = get_policy(policy_key)
    orders = tuple(reference_orders) if reference_orders else ("fairshare",)
    wl = workload
    if spec.max_runtime is not None:
        wl = split_by_runtime_limit(workload, spec.max_runtime)
    scheduler = spec.make_scheduler(**dict(scheduler_overrides or {}))
    engine = Engine(
        Cluster(wl.system_size),
        scheduler,
        wl.jobs,
        observers=[*metric_observers(estimate_mode, orders), *(observers or ())],
        kill_policy=kill_policy,
        validate=validate,
    )
    result = engine.run()
    return derive_policy_run(
        policy_key,
        result,
        epsilon=epsilon,
        reference_orders=orders,
        split=spec.max_runtime is not None,
    )


def derive_policy_run(
    policy_key: str,
    result: SimulationResult,
    *,
    epsilon: float = 1.0,
    reference_orders: Sequence[str] = ("fairshare",),
    split: bool = False,
) -> PolicyRun:
    """Derive the full :class:`PolicyRun` metric bundle from a finished
    simulation.

    :func:`run_policy` is "simulate then derive"; the live service finishes
    an incrementally-driven engine and derives from here, so both paths
    report through the identical metric pipeline.
    """
    orders = tuple(reference_orders) if reference_orders else ("fairshare",)
    fst = result.fst("hybrid")

    # Metrics are reported per *trace* job so every policy averages over the
    # identical job population (Figures 9/15 compare sums across policies).
    # For runtime-limit policies the scheduler saw chunks; collapse them:
    # the trace job's start is its first chunk's start, its completion the
    # last chunk's, and its FST the one observed at first-chunk arrival.
    metric_jobs = parent_view(result.jobs) if split else result.jobs
    metric_fst = _collapse_chunk_fst(result.jobs, fst, split)

    stats = fairness_stats(metric_jobs, metric_fst, epsilon=epsilon)
    by_order: Optional[Dict[str, FairnessStats]] = None
    if orders != ("fairshare",):
        by_order = {}
        for o in orders:
            if o == "fairshare":
                by_order[o] = stats
                continue
            ofst = _collapse_chunk_fst(
                result.jobs, result.fst(f"hybrid_{o}"), split
            )
            by_order[o] = fairness_stats(metric_jobs, ofst, epsilon=epsilon)
    # user metrics over trace jobs; system metrics over the raw schedule
    # (a collapsed parent spans its inter-chunk waits, which must not count
    # as executed work)
    summary = SummaryStats(
        n_jobs=len(metric_jobs),
        avg_wait=average_wait(metric_jobs),
        avg_turnaround=average_turnaround(metric_jobs),
        avg_slowdown=average_slowdown(metric_jobs),
        utilization=utilization(result.jobs, result.cluster_size),
        makespan=makespan(result.jobs),
    )
    return PolicyRun(
        policy=policy_key,
        result=result,
        summary=summary,
        fairness=stats,
        loss_of_capacity=loc_of(result),
        miss_by_width=average_miss_by_width(metric_jobs, metric_fst),
        turnaround_by_width=average_turnaround_by_width(metric_jobs),
        metric_jobs=metric_jobs,
        fst=metric_fst,
        fairness_by_order=by_order,
    )
