"""Campaign subsystem: declarative parallel parameter sweeps.

A campaign is a grid of (workload x policy x scheduler-parameter)
simulations declared as data (:class:`CampaignSpec`), executed across
worker processes (:func:`run_campaign`), memoized in a content-addressed
on-disk cache (:class:`CampaignCache`), and collapsed into per-group
mean/std/95%-CI statistics (:func:`aggregate_cells`).  The CLI front end
is ``repro sweep <spec.json>``.

The executor is a fault-tolerant runtime (see ``docs/ROBUSTNESS.md``):
failed cells retry under a :class:`RetryPolicy`, worker loss rebuilds
the pool, a watchdog bounds per-cell wall clock, completions journal to
a crash-safe :class:`RunJournal` for ``--resume``, and every failure
path is exercisable deterministically through :mod:`.faults`.
"""

from .aggregate import (
    aggregate_cells,
    aggregate_rows,
    flatten_metrics,
    t_critical_95,
)
from .cache import (
    CACHE_DIR_ENV,
    CACHE_SCHEMA,
    CacheAudit,
    CacheStats,
    CampaignCache,
    cell_key,
    code_version,
    default_cache_dir,
    metrics_digest,
)
from .executor import (
    CampaignResult,
    CellResult,
    run_campaign,
    run_cell,
    run_cells,
)
from .faults import FaultPlan, FaultRule
from .journal import JOURNAL_SCHEMA, RunJournal
from .retry import (
    CellFailure,
    CellTimeout,
    RetryPolicy,
    RunReport,
    TransientError,
    WorkerLost,
)
from .spec import CampaignCell, CampaignSpec, WorkloadSpec

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_SCHEMA",
    "CacheAudit",
    "CacheStats",
    "CampaignCache",
    "CampaignCell",
    "CampaignResult",
    "CampaignSpec",
    "CellFailure",
    "CellResult",
    "CellTimeout",
    "FaultPlan",
    "FaultRule",
    "JOURNAL_SCHEMA",
    "RetryPolicy",
    "RunJournal",
    "RunReport",
    "TransientError",
    "WorkerLost",
    "WorkloadSpec",
    "aggregate_cells",
    "aggregate_rows",
    "cell_key",
    "code_version",
    "default_cache_dir",
    "flatten_metrics",
    "metrics_digest",
    "run_campaign",
    "run_cell",
    "run_cells",
    "t_critical_95",
]
