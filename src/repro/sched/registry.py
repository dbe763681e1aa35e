"""Named scheduling policies — the paper's nine plus reference points.

Policy keys follow the paper's Section 5.5 naming:
``cplant<starve-hours>.<max-runtime>.<entrance>`` for the baseline family
and ``cons[dyn].<max-runtime>`` for the conservative family.  A policy is a
scheduler factory plus an optional workload transform parameter (the 72 h
maximum-runtime split, applied by the experiment runner before simulation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

from .base import BaseScheduler
from .conservative import ConservativeScheduler
from .depthk import DepthKScheduler
from .easy import EasyBackfillScheduler
from .nobackfill import NoBackfillScheduler
from .noguarantee import NoGuaranteeScheduler
from .roundrobin import RoundRobinScheduler

HOUR = 3600.0


@dataclass(frozen=True)
class PolicySpec:
    """A named policy: scheduler factory + workload transform parameter."""

    key: str
    factory: Callable[..., BaseScheduler]
    #: split jobs longer than this many seconds (None = no limit)
    max_runtime: Optional[float]
    description: str

    def make_scheduler(self, **overrides) -> BaseScheduler:
        return self.factory(**overrides)


def _cplant(starve_h: float, entrance: str) -> Callable[..., BaseScheduler]:
    def factory(**kw) -> BaseScheduler:
        params = {"starvation_threshold": starve_h * HOUR, "entrance": entrance}
        params.update(kw)  # explicit overrides win (ablation sweeps)
        return NoGuaranteeScheduler(**params)

    return factory


def _cons(**fixed) -> Callable[..., BaseScheduler]:
    def factory(**kw) -> BaseScheduler:
        return ConservativeScheduler(**{**fixed, **kw})

    return factory


_SPECS: Tuple[PolicySpec, ...] = (
    # -- the paper's nine policies (Section 5.5, in order) --
    PolicySpec(
        "cplant24.nomax.all", _cplant(24, "all"), None,
        "original CPlant scheduler: no-guarantee backfill, fairshare order, "
        "starvation queue after 24 h, all users eligible",
    ),
    PolicySpec(
        "cplant72.nomax.all", _cplant(72, "all"), None,
        "original scheduler, starvation-queue entry delayed to 72 h",
    ),
    PolicySpec(
        "cplant24.nomax.fair", _cplant(24, "fair"), None,
        "original scheduler, heavy/unfair users barred from the starvation queue",
    ),
    PolicySpec(
        "cplant24.72max.all", _cplant(24, "all"), 72 * HOUR,
        "original scheduler plus 72 h maximum runtime (long jobs split)",
    ),
    PolicySpec(
        "cplant72.72max.fair", _cplant(72, "fair"), 72 * HOUR,
        "all three minor modifications combined",
    ),
    PolicySpec(
        "cons.nomax", _cons(), None,
        "conservative backfilling with fairshare queuing priority",
    ),
    PolicySpec(
        "cons.72max", _cons(), 72 * HOUR,
        "conservative backfilling plus 72 h runtime limits",
    ),
    PolicySpec(
        "consdyn.nomax", lambda **kw: DepthKScheduler(depth=math.inf, **kw),
        None,
        "conservative backfilling with dynamic reservations",
    ),
    PolicySpec(
        "consdyn.72max", lambda **kw: DepthKScheduler(depth=math.inf, **kw),
        72 * HOUR,
        "conservative dynamic reservations plus 72 h runtime limits",
    ),
    # -- reference points beyond the paper's evaluated set --
    PolicySpec(
        "fcfs.nobackfill", lambda **kw: NoBackfillScheduler(priority="fcfs", **kw),
        None, "strict FCFS without backfilling (Figure 1 baseline)",
    ),
    PolicySpec(
        "fairshare.nobackfill",
        lambda **kw: NoBackfillScheduler(priority="fairshare", **kw),
        None, "strict fairshare-order scheduling without backfilling",
    ),
    PolicySpec(
        "easy.fcfs", lambda **kw: EasyBackfillScheduler(priority="fcfs", **kw),
        None, "EASY (aggressive) backfilling, FCFS priority",
    ),
    PolicySpec(
        "easy.fairshare",
        lambda **kw: EasyBackfillScheduler(priority="fairshare", **kw),
        None, "EASY (aggressive) backfilling, fairshare priority",
    ),
    PolicySpec(
        "depth2.fairshare",
        lambda **kw: DepthKScheduler(depth=2, **kw),
        None, "reservation-depth-2 backfilling, fairshare priority "
        "(the production middle ground the paper's introduction describes)",
    ),
    PolicySpec(
        "depth4.fairshare",
        lambda **kw: DepthKScheduler(depth=4, **kw),
        None, "reservation-depth-4 backfilling, fairshare priority",
    ),
    # -- the size-based / baseline frontier (fairness-matrix extension) --
    PolicySpec(
        "spt.nobackfill",
        lambda **kw: NoBackfillScheduler(priority="spt", **kw),
        None, "shortest-estimate-first list scheduling without backfilling",
    ),
    PolicySpec(
        "easy.spt", lambda **kw: EasyBackfillScheduler(priority="spt", **kw),
        None, "EASY backfilling with shortest-estimate-first priority",
    ),
    PolicySpec(
        "easy.srpt", lambda **kw: EasyBackfillScheduler(priority="srpt", **kw),
        72 * HOUR,
        "EASY backfilling ordered by shortest *remaining* estimate; the "
        "72 h runtime limit splits long jobs so progress shortens a chain",
    ),
    PolicySpec(
        "easy.widest",
        lambda **kw: EasyBackfillScheduler(priority="widest", **kw),
        None, "EASY backfilling with widest-job-first priority",
    ),
    PolicySpec(
        "fsp.easy", lambda **kw: EasyBackfillScheduler(priority="fsp", **kw),
        None,
        "fair-sojourn (FSP-like) rank from a virtual equal-share machine, "
        "with EASY backfilling around a blocked head",
    ),
    PolicySpec(
        "fsp.nobackfill",
        lambda **kw: NoBackfillScheduler(priority="fsp", **kw),
        None, "fair-sojourn (FSP-like) rank, strict list scheduling",
    ),
    PolicySpec(
        "rr.user", lambda **kw: RoundRobinScheduler(**kw),
        None, "round-robin over users, FCFS within each user's lane",
    ),
)

REGISTRY: Dict[str, PolicySpec] = {spec.key: spec for spec in _SPECS}

#: the nine policies of Section 5.5, in the paper's order
PAPER_POLICIES: Tuple[str, ...] = tuple(s.key for s in _SPECS[:9])

#: Figures 8-13 ("minor changes") policy set
MINOR_POLICIES: Tuple[str, ...] = PAPER_POLICIES[:5]

#: Figures 16/18 conservative-comparison set (baseline + conservative four)
CONSERVATIVE_POLICIES: Tuple[str, ...] = (
    "cplant24.nomax.all", "cons.nomax", "consdyn.nomax", "cons.72max", "consdyn.72max",
)

#: the fairness-matrix policy set: the paper baseline and conservative
#: reference, the classic FCFS/EASY baselines, and the size-based frontier
MATRIX_POLICIES: Tuple[str, ...] = (
    "cplant24.nomax.all", "cons.nomax", "fcfs.nobackfill", "easy.fcfs",
    "spt.nobackfill", "easy.srpt", "fsp.easy", "rr.user",
)


def validate_overrides(key: str, overrides: Mapping[str, object]) -> None:
    """Fail fast on scheduler-parameter overrides a policy cannot accept.

    Campaign specs name override grids declaratively; instantiating the
    scheduler here (they are cheap to build) surfaces a misspelled or
    inapplicable parameter before any worker process is spawned, with the
    policy key *and the offending override names* in the message instead
    of a bare ``TypeError`` from a factory closure.
    """
    spec = get_policy(key)
    try:
        spec.make_scheduler(**dict(overrides))
        return
    except TypeError as exc:
        cause = exc
    # name the culprit(s): re-probe each override alone, so "which key was
    # wrong" survives even when several are passed together
    bad = sorted(
        k for k, v in dict(overrides).items()
        if _rejects_single_override(spec, k, v)
    )
    if bad:
        raise ValueError(
            f"policy {key!r} rejects scheduler override"
            f"{'s' if len(bad) > 1 else ''} "
            f"{', '.join(repr(k) for k in bad)}: {cause}"
        ) from None
    # no single key is at fault (an interaction); report the whole set
    raise ValueError(
        f"policy {key!r} rejects scheduler overrides "
        f"{dict(overrides)!r}: {cause}"
    ) from None


def _rejects_single_override(
    spec: PolicySpec, key: str, value: object
) -> bool:
    try:
        spec.make_scheduler(**{key: value})
    except TypeError:
        return True
    return False


def get_policy(key: str) -> PolicySpec:
    try:
        return REGISTRY[key]
    except KeyError:
        raise KeyError(
            f"unknown policy {key!r}; known: {', '.join(sorted(REGISTRY))}"
        ) from None


def policy_names() -> Tuple[str, ...]:
    return tuple(REGISTRY)
