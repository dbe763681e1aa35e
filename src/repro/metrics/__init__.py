"""User, system, and fairness metrics."""

from .categories import (
    average_miss_by_width,
    average_turnaround_by_width,
)
from .fairness import (
    DEFAULT_EPSILON,
    FairnessStats,
    REFERENCE_ORDERS,
    HybridFSTObserver,
    consp_fst,
    fairness_stats,
    miss_times,
    resource_equality_deficits,
    sabin_fst,
)
from .loc import LossOfCapacityObserver, loc_of
from .queue import QueueObserver, QueueStats, queue_series_to_arrays
from .users import (
    HeavyLightSplit,
    UserFairness,
    heavy_light_split,
    per_user_fairness,
    render_user_fairness,
)
from .standard import (
    SummaryStats,
    average_slowdown,
    average_turnaround,
    average_wait,
    makespan,
    slowdowns,
    summarize,
    turnaround_times,
    utilization,
    wait_times,
)
from .weekly import WeeklySeries, format_weekly, weekly_series

__all__ = [
    "DEFAULT_EPSILON",
    "FairnessStats",
    "HybridFSTObserver",
    "HeavyLightSplit",
    "LossOfCapacityObserver",
    "QueueObserver",
    "QueueStats",
    "REFERENCE_ORDERS",
    "SummaryStats",
    "UserFairness",
    "heavy_light_split",
    "per_user_fairness",
    "queue_series_to_arrays",
    "render_user_fairness",
    "WeeklySeries",
    "average_miss_by_width",
    "average_slowdown",
    "average_turnaround",
    "average_turnaround_by_width",
    "average_wait",
    "consp_fst",
    "fairness_stats",
    "format_weekly",
    "loc_of",
    "makespan",
    "miss_times",
    "resource_equality_deficits",
    "sabin_fst",
    "slowdowns",
    "summarize",
    "turnaround_times",
    "utilization",
    "wait_times",
    "weekly_series",
]
