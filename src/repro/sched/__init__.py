"""Scheduling policies: the CPlant baseline, its fairness-directed
variants, and the conservative-backfilling family."""

from .base import PRIORITY_POLICIES, BaseScheduler
from .conservative import ConservativeScheduler
from .depthk import DepthKScheduler
from .easy import EasyBackfillScheduler, head_reservation
from .fairshare import DAY, FairshareTracker
from .nobackfill import NoBackfillScheduler
from .noguarantee import NoGuaranteeScheduler
from .queues import (
    fcfs_order,
    shortest_first_order,
    widest_first_order,
)
from .registry import (
    CONSERVATIVE_POLICIES,
    MATRIX_POLICIES,
    MINOR_POLICIES,
    PAPER_POLICIES,
    REGISTRY,
    PolicySpec,
    get_policy,
    policy_names,
    validate_overrides,
)
from .roundrobin import RoundRobinScheduler
from .sizebased import FairSojournScheduler, VirtualFairShare

__all__ = [
    "BaseScheduler",
    "CONSERVATIVE_POLICIES",
    "ConservativeScheduler",
    "DAY",
    "DepthKScheduler",
    "EasyBackfillScheduler",
    "FairSojournScheduler",
    "FairshareTracker",
    "MATRIX_POLICIES",
    "MINOR_POLICIES",
    "NoBackfillScheduler",
    "NoGuaranteeScheduler",
    "PAPER_POLICIES",
    "PRIORITY_POLICIES",
    "PolicySpec",
    "REGISTRY",
    "RoundRobinScheduler",
    "VirtualFairShare",
    "fcfs_order",
    "get_policy",
    "head_reservation",
    "policy_names",
    "shortest_first_order",
    "validate_overrides",
    "widest_first_order",
]
