"""repro — reproduction of *Parallel Job Scheduling Policies to Improve
Fairness: A Case Study* (Leung, Sabin, Sadayappan; SAND2008-1310 / ICPP).

Quickstart::

    from repro import api

    run = api.run(policy="cplant24.nomax.all", scale=0.1, seed=1)
    print(run.report())
    print(run.summary)
    print(run.fairness)

:mod:`repro.api` is the one way to run simulations (``run`` and
``compare`` return :class:`PolicyRun` bundles; ``sweep``,
``build_artifacts``, ``open_session``); see
docs/ARCHITECTURE.md for the system inventory and docs/PIPELINE.md for
the paper-artifact build.
"""

from .core import (
    Cluster,
    Engine,
    Job,
    JobState,
    KillPolicy,
    FreeTimeline,
    Observer,
    ReservationProfile,
    SimulationResult,
)
from .campaign import (
    CampaignCache,
    CampaignCell,
    CampaignResult,
    CampaignSpec,
    CellResult,
    WorkloadSpec,
    aggregate_cells,
    cell_key,
    run_campaign,
    run_cell,
)
from .experiments import (
    PolicyRun,
    RunOptions,
)
from .scenarios import (
    Scenario,
    all_scenarios,
    get_scenario,
    scenario_names,
)
from .metrics import (
    FairnessStats,
    HybridFSTObserver,
    LossOfCapacityObserver,
    SummaryStats,
    consp_fst,
    fairness_stats,
    resource_equality_deficits,
    sabin_fst,
    summarize,
    weekly_series,
)
from .sched import (
    CONSERVATIVE_POLICIES,
    MINOR_POLICIES,
    PAPER_POLICIES,
    BaseScheduler,
    ConservativeScheduler,
    DepthKScheduler,
    EasyBackfillScheduler,
    FairshareTracker,
    NoBackfillScheduler,
    NoGuaranteeScheduler,
    get_policy,
    policy_names,
)
from .workload import (
    GeneratorConfig,
    Workload,
    generate_cplant_workload,
    parent_view,
    random_workload,
    read_swf,
    replication_seeds,
    split_by_runtime_limit,
    write_swf,
)

__version__ = "1.0.0"

__all__ = [
    "BaseScheduler",
    "CONSERVATIVE_POLICIES",
    "CampaignCache",
    "CampaignCell",
    "CampaignResult",
    "CampaignSpec",
    "CellResult",
    "Cluster",
    "ConservativeScheduler",
    "DepthKScheduler",
    "EasyBackfillScheduler",
    "Engine",
    "FairnessStats",
    "FairshareTracker",
    "GeneratorConfig",
    "HybridFSTObserver",
    "Job",
    "JobState",
    "KillPolicy",
    "FreeTimeline",
    "LossOfCapacityObserver",
    "MINOR_POLICIES",
    "NoBackfillScheduler",
    "NoGuaranteeScheduler",
    "Observer",
    "PAPER_POLICIES",
    "PolicyRun",
    "ReservationProfile",
    "RunOptions",
    "Scenario",
    "SimulationResult",
    "SummaryStats",
    "Workload",
    "WorkloadSpec",
    "aggregate_cells",
    "all_scenarios",
    "cell_key",
    "consp_fst",
    "fairness_stats",
    "generate_cplant_workload",
    "get_policy",
    "get_scenario",
    "parent_view",
    "policy_names",
    "random_workload",
    "read_swf",
    "replication_seeds",
    "resource_equality_deficits",
    "run_campaign",
    "run_cell",
    "scenario_names",
    "sabin_fst",
    "split_by_runtime_limit",
    "summarize",
    "weekly_series",
    "write_swf",
    "__version__",
]
