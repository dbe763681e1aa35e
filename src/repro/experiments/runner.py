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
from ..core.job import Job
from ..core.results import SimulationResult
from ..metrics.categories import average_miss_by_width, average_turnaround_by_width
from ..metrics.fairness import (
    REFERENCE_ORDERS,
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
from ..sched.registry import PolicySpec, get_policy
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

    Every surface carries one of these to the engine: :func:`run_policy`,
    :class:`~repro.service.session.LiveSimulation`, campaign cells (whose
    cache key hashes :meth:`identity`), artifact definitions, the fairness
    matrix and the service protocol.  Construction is the one
    canonicalise-and-validate step, so loosely-typed values (a kill-policy
    name, an overrides mapping, a list of reference orders) normalise to
    one form, equal options compare and hash equal, and a bad value fails
    with a ``ValueError`` that names its key.
    """

    estimate_mode: str = "perfect"
    epsilon: float = 1.0
    kill_policy: KillPolicy = KillPolicy.IF_NEEDED
    scheduler_overrides: Tuple[Tuple[str, object], ...] = ()
    validate: bool = False
    #: hybrid-FST reference orders to evaluate; fairshare (the paper's
    #: basis, always evaluated) pins first and the rest keep caller order,
    #: deduplicated.  The fairshare-only default is deliberately *omitted*
    #: from :meth:`identity` so pre-existing cache keys (and the digest
    #: oracle) are untouched by the matrix extension
    reference_orders: Tuple[str, ...] = ("fairshare",)

    def __post_init__(self) -> None:
        if self.estimate_mode not in ("perfect", "wcl"):
            raise ValueError(
                f"unknown estimate_mode {self.estimate_mode!r}; "
                f"known: 'perfect', 'wcl'"
            )

        try:
            epsilon = float(self.epsilon)
        except (TypeError, ValueError):
            raise ValueError(
                f"epsilon must be a number, got {self.epsilon!r}"
            ) from None

        kp = self.kill_policy
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

        raw_ov = self.scheduler_overrides
        try:
            overrides = dict(raw_ov)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            raise ValueError(
                f"scheduler_overrides must be a mapping, got {raw_ov!r}"
            ) from None
        bad_keys = sorted(
            repr(k) for k in overrides if not isinstance(k, str)
        )
        if bad_keys:
            raise ValueError(
                f"scheduler_overrides keys must be strings, got {bad_keys}"
            )

        if not isinstance(self.validate, bool):
            raise ValueError(f"validate must be a bool, got {self.validate!r}")

        raw_orders = self.reference_orders
        if isinstance(raw_orders, str):
            raw_orders = (raw_orders,)
        try:
            orders = [str(o) for o in raw_orders]
        except TypeError:
            raise ValueError(
                f"reference_orders must be a list of names, got {raw_orders!r}"
            ) from None
        bad_orders = sorted(set(orders) - set(REFERENCE_ORDERS))
        if bad_orders:
            raise ValueError(
                f"unknown reference_orders {bad_orders}; "
                f"known: {sorted(REFERENCE_ORDERS)}"
            )

        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "kill_policy", kp)
        object.__setattr__(
            self, "scheduler_overrides", tuple(sorted(overrides.items()))
        )
        object.__setattr__(
            self, "reference_orders",
            ("fairshare", *dict.fromkeys(o for o in orders if o != "fairshare")),
        )

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
        """Options from loosely-typed data (JSON specs, CLI flags, request
        payloads): rejects unknown keys, resolves the ``overrides``
        shorthand, and leaves every value to the constructor.

        ``extra`` keyword pairs merge over ``mapping`` (caller overrides).
        """
        data: Dict[str, object] = {**dict(mapping or {}), **extra}
        unknown = sorted(set(data) - cls.MAPPING_KEYS)
        if unknown:
            raise ValueError(
                f"unknown run-option keys {unknown}; "
                f"known: {sorted(cls.MAPPING_KEYS)}"
            )
        if "overrides" in data:
            if "scheduler_overrides" in data:
                raise ValueError(
                    "give either 'scheduler_overrides' or its shorthand "
                    "'overrides', not both"
                )
            data["scheduler_overrides"] = data.pop("overrides")
        return cls(**data)  # type: ignore[arg-type]

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


def metric_observers(options: RunOptions) -> List:
    """The metric observer stack every simulation carries, in order: one
    hybrid FST observer for every reference order (the paper's fairshare
    order first), then loss of capacity."""
    return [
        HybridFSTObserver(options.estimate_mode, options.reference_orders),
        LossOfCapacityObserver(),
    ]


def policy_engine(
    spec: PolicySpec,
    system_size: int,
    options: RunOptions,
    jobs: Sequence[Job] = (),
    observers: Sequence = (),
) -> Engine:
    """The engine one policy simulation runs on: the policy's scheduler
    under ``options``, with :func:`metric_observers` attached first and
    ``observers`` after them.

    Batch runs and live service sessions both build their engine here, so
    the same trace digests identically on either path.
    """
    return Engine(
        Cluster(system_size),
        spec.make_scheduler(**dict(options.scheduler_overrides)),
        jobs,
        observers=[*metric_observers(options), *observers],
        kill_policy=options.kill_policy,
        validate=options.validate,
    )


def run_policy(
    workload: Workload,
    policy_key: str,
    options: RunOptions = RunOptions(),
    observers: Sequence = (),
) -> PolicyRun:
    """Simulate one named policy on a workload and derive all metrics.

    ``observers`` appends extra engine observers (e.g. a
    :class:`~repro.obs.trace.TraceObserver`) after the metric observers;
    observation must never change the result (the digest tests hold
    tracing to that).

    Every reference order in ``options`` is evaluated in the *same*
    simulation (one observer places every order; observers never
    influence scheduling); the primary ``fairness`` block always uses the
    paper's fairshare basis, and per-order stats land in
    :attr:`PolicyRun.fairness_by_order`.
    """
    spec = get_policy(policy_key)
    split = spec.max_runtime is not None
    wl = split_by_runtime_limit(workload, spec.max_runtime) if split else workload
    engine = policy_engine(spec, wl.system_size, options, wl.jobs, observers)
    return derive_policy_run(policy_key, engine.run(), options, split=split)


def derive_policy_run(
    policy_key: str,
    result: SimulationResult,
    options: RunOptions = RunOptions(),
    *,
    split: bool = False,
) -> PolicyRun:
    """Derive the full :class:`PolicyRun` metric bundle from a finished
    simulation.

    :func:`run_policy` is "simulate then derive"; the live service finishes
    an incrementally-driven engine and derives from here, so both paths
    report through the identical metric pipeline.
    """
    orders, epsilon = options.reference_orders, options.epsilon
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
