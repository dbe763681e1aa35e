"""The stable public facade of the reproduction toolkit.

Every way of running a simulation goes through one request/handle model:
build a :class:`SimulationRequest` (policy + exactly one workload source +
canonical options), call :func:`run`, and get a :class:`SimulationHandle`
carrying the full metric bundle.  The CLI, the campaign executor, the
paper-artifact pipeline, and the scheduler service all consume this
module; it is the one way to run a simulation.

Quick tour::

    import repro.api as api

    h = api.run(policy="cplant24.nomax.all", scale=0.05, seed=7)
    print(h.report())

    suite = api.compare(["fcfs.nobackfill", "easy.fairshare"], scale=0.02)

    result = api.sweep("examples/campaign.json", jobs=4)

    with api.open_session(policy="cplant24.nomax.all",
                          system_size=1024) as live:
        live.submit(jobs)
        live.advance(3600.0)
        print(live.snapshot())

Heavier subsystems (scenarios, campaign, artifacts, service) import
lazily, so ``import repro.api`` stays light.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from .core.engine import KillPolicy, Observer
from .experiments import runner as _runner
from .experiments.runner import PolicyRun, RunOptions
from .sched.registry import get_policy
from .workload.generator import GeneratorConfig, generate_cplant_workload
from .workload.model import Workload
from .workload.swf import read_swf

__all__ = [
    # the request/handle model
    "SimulationRequest",
    "SimulationHandle",
    "run",
    "compare",
    # canonical option/contract types (re-exported for one-stop imports)
    "RunOptions",
    "KillPolicy",
    "Observer",
    "PolicyRun",
    "Workload",
    # orchestration surfaces
    "sweep",
    "build_artifacts",
    "open_session",
    "serve",
    # catalogs
    "list_scenarios",
    "get_scenario",
    "list_policies",
]


@dataclass(frozen=True)
class SimulationRequest:
    """Everything that determines one policy simulation.

    Exactly one workload source applies, checked in this order: an
    explicit :class:`Workload` object, a registered ``scenario`` name
    (with ``params`` as scenario parameters and the scenario's run-option
    defaults in effect), an ``swf`` trace path, or — when none is given —
    the calibrated synthetic CPlant trace at ``scale``/``seed``.

    ``options`` may be a canonical :class:`RunOptions` (used verbatim), a
    plain mapping (parsed by :meth:`RunOptions.from_mapping` and merged
    *over* the scenario's defaults), or ``None`` (defaults only).
    """

    policy: str = "cplant24.nomax.all"
    workload: Optional[Workload] = None
    scenario: Optional[str] = None
    swf: Optional[str] = None
    scale: float = 0.1
    seed: int = 7
    params: Tuple[Tuple[str, object], ...] = ()
    options: Union[RunOptions, Mapping[str, object], None] = None
    observers: Tuple[Observer, ...] = ()

    def __post_init__(self) -> None:
        sources = [
            name for name in ("workload", "scenario", "swf")
            if getattr(self, name) is not None
        ]
        if len(sources) > 1:
            raise ValueError(
                f"give at most one workload source, got {sources}"
            )
        object.__setattr__(
            self, "params", tuple(sorted(dict(self.params).items()))
        )
        object.__setattr__(self, "observers", tuple(self.observers))
        if self.params and self.scenario is None:
            raise ValueError(
                "params are scenario parameters; they need a scenario "
                "workload source"
            )

    # -- resolution ------------------------------------------------------------

    def resolve_workload(self) -> Workload:
        """Build (or pass through) the workload this request names."""
        if self.workload is not None:
            return self.workload
        if self.scenario is not None:
            from .scenarios import get_scenario as _get

            return _get(self.scenario).build(
                seed=self.seed, **dict(self.params)
            )
        if self.swf is not None:
            return read_swf(self.swf)
        return generate_cplant_workload(
            GeneratorConfig(scale=self.scale), seed=self.seed
        )

    def resolve_options(self) -> RunOptions:
        """Canonical engine options, with scenario defaults applied."""
        defaults: Dict[str, object] = {}
        if self.scenario is not None:
            from .scenarios import get_scenario as _get

            defaults = dict(_get(self.scenario).options)
        opts = self.options
        if opts is None:
            return RunOptions.from_mapping(defaults)
        if isinstance(opts, RunOptions):
            return opts
        if isinstance(opts, Mapping):
            return RunOptions.from_mapping({**defaults, **dict(opts)})
        raise ValueError(
            f"options must be RunOptions, a mapping, or None; "
            f"got {type(opts).__name__}"
        )


class SimulationHandle:
    """The outcome of one request: the request itself plus the full
    :class:`PolicyRun` metric bundle, with attribute delegation so every
    consumer of the historical ``PolicyRun`` shape keeps working
    (``handle.summary``, ``handle.fairness``, ``handle.result`` ...)."""

    __slots__ = ("request", "run")

    def __init__(self, request: SimulationRequest, run: PolicyRun) -> None:
        self.request = request
        self.run = run

    def __getattr__(self, name: str):
        return getattr(self.run, name)

    def __repr__(self) -> str:
        return (
            f"SimulationHandle(policy={self.run.policy!r}, "
            f"jobs={self.run.summary.n_jobs}, digest={self.digest()[:12]}...)"
        )

    def digest(self) -> str:
        """Content digest of the simulation outcome (the equality oracle)."""
        return self.run.result.digest()

    def report(self) -> str:
        """The standard per-policy text report (shared by the CLI)."""
        s, f = self.run.summary, self.run.fairness
        return "\n".join([
            f"policy: {self.run.policy}",
            f"  jobs completed        : {s.n_jobs}",
            f"  avg wait              : {s.avg_wait:,.0f} s",
            f"  avg turnaround (Eq.1) : {s.avg_turnaround:,.0f} s",
            f"  avg bounded slowdown  : {s.avg_slowdown:,.1f}",
            f"  utilization (Eq.2)    : {100 * s.utilization:.1f} %",
            f"  loss of capacity(Eq.4): {100 * self.run.loss_of_capacity:.2f} %",
            f"  percent unfair jobs   : {100 * f.percent_unfair:.2f} %",
            f"  avg miss time (Eq.5)  : {f.average_miss_time:,.0f} s",
        ])


def run(
    request: Optional[SimulationRequest] = None,
    **kwargs: object,
) -> SimulationHandle:
    """Execute one simulation request; keywords build or refine one.

    ``api.run(policy="easy.fairshare", scale=0.05)`` is shorthand for
    ``api.run(SimulationRequest(policy=..., scale=...))``; passing both a
    request and keywords refines the request (``dataclasses.replace``).
    """
    if request is None:
        req = SimulationRequest(**kwargs)  # type: ignore[arg-type]
    elif kwargs:
        req = replace(request, **kwargs)  # type: ignore[arg-type]
    else:
        req = request
    prun = _runner.run_policy(
        req.resolve_workload(), req.policy, req.resolve_options(),
        observers=req.observers,
    )
    return SimulationHandle(req, prun)


def compare(
    policies: Union[str, Sequence[str]],
    progress: bool = False,
    **kwargs: object,
) -> Dict[str, SimulationHandle]:
    """Run several policies on one workload (resolved once); keywords are
    :class:`SimulationRequest` fields minus ``policy``.

    Every key is checked against the policy registry first, so an unknown
    name fails with the registry's ``KeyError`` before anything is built
    or simulated.
    """
    keys = [policies] if isinstance(policies, str) else list(policies)
    if not keys:
        raise ValueError("compare needs at least one policy")
    for key in keys:
        get_policy(key)
    base = SimulationRequest(policy=keys[0], **kwargs)  # type: ignore[arg-type]
    wl = base.resolve_workload()
    base = replace(base, workload=wl, scenario=None, swf=None, params=(),
                   options=base.resolve_options())
    out: Dict[str, SimulationHandle] = {}
    for key in keys:
        if progress:
            print(f"[repro] simulating {key} on {wl.name} ...", flush=True)
        out[key] = run(base, policy=key)
    return out


# -- orchestration surfaces ----------------------------------------------------


def sweep(spec, **kwargs):
    """Run a campaign sweep (parallel, cached, resumable).

    ``spec`` may be a :class:`repro.campaign.CampaignSpec`, a plain dict in
    spec-JSON shape, or a path to a spec JSON file.  Remaining keywords go
    to :func:`repro.campaign.run_campaign` (``jobs``, ``cache``,
    ``retry``, ``resume``, ``keep_going``, ``progress`` ...).
    """
    from .campaign import CampaignSpec, run_campaign

    if isinstance(spec, CampaignSpec):
        resolved = spec
    elif isinstance(spec, Mapping):
        resolved = CampaignSpec.from_dict(spec)
    else:
        resolved = CampaignSpec.from_json(spec)
    return run_campaign(resolved, **kwargs)


def build_artifacts(**kwargs):
    """Build paper artifacts; see :func:`repro.artifacts.build_artifacts`."""
    from .artifacts import build_artifacts as _build

    return _build(**kwargs)


def open_session(
    request: Optional[SimulationRequest] = None,
    *,
    system_size: Optional[int] = None,
    **kwargs: object,
):
    """Open a live incremental simulation (the in-process service core).

    Returns a :class:`repro.service.LiveSimulation`: submit jobs as they
    arrive, advance the clock, snapshot per-user fairness, fork warm
    what-if variants, finish for the full metric bundle.  With
    ``system_size`` (and no workload source) the session starts empty.
    """
    from .service import LiveSimulation

    if request is None:
        req = SimulationRequest(**kwargs)  # type: ignore[arg-type]
    elif kwargs:
        req = replace(request, **kwargs)  # type: ignore[arg-type]
    else:
        req = request
    return LiveSimulation.from_request(req, system_size=system_size)


def serve(host: str = "127.0.0.1", port: int = 0, **kwargs):
    """Run the multi-tenant scheduler server (blocking); see
    :func:`repro.service.serve` and docs/SERVICE.md."""
    from .service import serve as _serve

    return _serve(host=host, port=port, **kwargs)


# -- catalogs ------------------------------------------------------------------


def list_scenarios():
    """Every registered scenario recipe, in catalog order."""
    from .scenarios import all_scenarios

    return tuple(all_scenarios())


def get_scenario(name: str):
    """One registered scenario by name (KeyError lists known names)."""
    from .scenarios import get_scenario as _get

    return _get(name)


def list_policies() -> Dict[str, object]:
    """Every registered policy key -> its spec (description, factory...)."""
    from .sched.registry import REGISTRY

    return dict(REGISTRY)
