"""One live, incrementally-driven simulation (the in-process service core).

A :class:`LiveSimulation` wraps an :class:`~repro.core.engine.Engine` in its
incremental form — ``ingest / step_until / finish`` — built by the batch
path's :func:`~repro.experiments.runner.policy_engine`, metric observers
attached from the first event, so a session that is fed the same jobs a
batch run would read from a workload finishes with a byte-identical
:meth:`~repro.core.results.SimulationResult.digest`.

On top of the engine it adds the three service verbs:

* :meth:`snapshot` — live per-user fairness / utilization / queue depth,
  read straight from the attached observers (no re-simulation);
* :meth:`whatif` — fork the warm engine state, apply scheduler-parameter
  overrides to the fork, and drain both the variant and an unmodified
  baseline fork to completion.  Completed history is *inherited*, not
  re-simulated: both forks start at the parent's event count and completed
  jobs keep their recorded times;
* :meth:`finish` — seal the run and derive the full
  :class:`~repro.experiments.runner.PolicyRun` bundle through the same
  pipeline as the batch path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence

from ..core.engine import Engine
from ..core.job import Job, JobState
from ..experiments.runner import (
    PolicyRun,
    RunOptions,
    derive_policy_run,
    policy_engine,
)
from ..metrics.users import per_user_fairness
from ..sched.registry import get_policy, validate_overrides

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api imports us lazily)
    from ..api import SimulationRequest


class LiveSimulation:
    """An incremental policy simulation with live metrics and warm forks."""

    def __init__(
        self,
        policy: str,
        *,
        system_size: int,
        options: RunOptions = RunOptions(),
        jobs: Sequence[Job] = (),
        observers: Sequence = (),
    ) -> None:
        spec = get_policy(policy)
        if spec.max_runtime is not None:
            raise ValueError(
                f"policy {policy!r} applies a runtime-limit transform "
                f"(max_runtime={spec.max_runtime}); chunk chains are "
                "numbered over the whole trace, which an incremental "
                "session cannot replicate — run it through the batch path"
            )
        self.policy = policy
        self.options = options
        self.engine = policy_engine(spec, system_size, options, jobs, observers)
        #: the hybrid-FST observer (first of the metric stack)
        self._fst_obs = self.engine.observers[0]
        self._run: Optional[PolicyRun] = None

    @classmethod
    def from_request(
        cls,
        request: "SimulationRequest",
        system_size: Optional[int] = None,
    ) -> "LiveSimulation":
        """Open a session from an api request.

        With ``system_size`` and no workload source the session starts
        empty (jobs arrive via :meth:`submit`); otherwise the request's
        workload is pre-loaded and the cluster sized from it.
        """
        opts = request.resolve_options()
        empty = (
            system_size is not None
            and request.workload is None
            and request.scenario is None
            and request.swf is None
        )
        if empty:
            return cls(
                request.policy,
                system_size=system_size,
                options=opts,
                observers=request.observers,
            )
        wl = request.resolve_workload()
        return cls(
            request.policy,
            system_size=system_size or wl.system_size,
            options=opts,
            jobs=wl.jobs,
            observers=request.observers,
        )

    # -- lifecycle ---------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.engine.now

    @property
    def finished(self) -> bool:
        return self._run is not None

    def submit(self, jobs: Sequence[Job]) -> List[Job]:
        """Ingest new jobs (engine copies are returned)."""
        return self.engine.ingest(jobs)

    def advance(self, until: float, inclusive: bool = True) -> int:
        """Process due events up to ``until``; return how many ran."""
        return self.engine.step_until(until, inclusive=inclusive)

    def finish(self) -> PolicyRun:
        """Drain remaining work and derive the full metric bundle
        (idempotent)."""
        if self._run is None:
            self._run = derive_policy_run(
                self.policy, self.engine.finish(), self.options
            )
        return self._run

    def close(self) -> None:
        """Alias used by the context-manager protocol; sessions hold no
        external resources, so this only seals an unfinished engine."""
        if self._run is None and self.engine.jobs:
            self.finish()

    def __enter__(self) -> "LiveSimulation":
        return self

    def __exit__(self, *exc) -> None:
        if exc[0] is None:
            self.close()

    # -- live metrics ------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Current engine state plus live per-user fairness.

        Everything is read from state the engine and its metric observers
        already maintain; taking a snapshot never schedules or simulates
        anything.
        """
        jobs = self.engine.jobs
        by_state = {s: 0 for s in JobState}
        for j in jobs:
            by_state[j.state] += 1
        cluster = self.engine.cluster
        return {
            "now": self.engine.now,
            "events_processed": self.engine.events_processed,
            "jobs_submitted": len(jobs),
            "jobs_completed": by_state[JobState.COMPLETED],
            "jobs_running": by_state[JobState.RUNNING],
            "jobs_queued": by_state[JobState.QUEUED] + by_state[JobState.PENDING],
            "free_nodes": cluster.free_nodes,
            "utilization_now": cluster.used_nodes / cluster.size,
            "per_user": self.per_user_metrics(),
        }

    def per_user_metrics(
        self, jobs: Optional[Sequence[Job]] = None
    ) -> Dict[str, Dict[str, float]]:
        """Per-user fairness over completed jobs, JSON-shaped.

        The same projection serves live snapshots (jobs completed so far)
        and the final report (``finish().metric_jobs``), so a streamed
        session and an offline batch run of the merged trace render
        byte-identical payloads.
        """
        if jobs is None:
            jobs = [j for j in self.engine.jobs if j.state is JobState.COMPLETED]
        if not jobs:
            return {}
        stats = per_user_fairness(
            jobs, self._fst_obs.fst, epsilon=self.options.epsilon
        )
        return {
            str(uid): {
                "n_jobs": rec.n_jobs,
                "total_work": rec.total_work,
                "avg_wait": rec.avg_wait,
                "avg_miss_time": rec.avg_miss_time,
                "percent_unfair": rec.percent_unfair,
                "worst_miss": rec.worst_miss,
            }
            for uid, rec in sorted(stats.items())
        }

    # -- warm what-if ------------------------------------------------------------

    def whatif(
        self, overrides: Mapping[str, object]
    ) -> Dict[str, object]:
        """Answer "what if the scheduler ran with these parameters from
        *now* on?" without re-simulating completed history.

        Two deep forks of the live engine are drained to completion: one
        untouched (the baseline the live run is heading for) and one with
        ``overrides`` applied to its scheduler.  Both inherit the parent's
        clock, queues, running jobs, and event count, so only the future
        is simulated; the live session itself is never perturbed.
        """
        validate_overrides(self.policy, overrides)
        events_before = self.engine.events_processed
        completed_before = sum(
            1 for j in self.engine.jobs if j.state is JobState.COMPLETED
        )
        baseline = self.engine.fork()
        variant = self.engine.fork()
        self._apply_overrides(variant, overrides)
        base_run = derive_policy_run(
            self.policy, baseline.finish(), self.options
        )
        var_run = derive_policy_run(self.policy, variant.finish(), self.options)
        return {
            "overrides": dict(overrides),
            "forked_at": self.engine.now,
            "events_inherited": events_before,
            "jobs_completed_before_fork": completed_before,
            "baseline": _whatif_block(base_run, events_before),
            "variant": _whatif_block(var_run, events_before),
        }

    @staticmethod
    def _apply_overrides(fork: Engine, overrides: Mapping[str, object]) -> None:
        sched = fork.scheduler
        for key, value in overrides.items():
            if hasattr(sched, key):
                setattr(sched, key, value)
            elif hasattr(sched.tracker, key):
                setattr(sched.tracker, key, value)
            else:
                raise ValueError(
                    f"override {key!r} is a construction-only parameter; "
                    "a warm fork cannot change it mid-run"
                )


def _whatif_block(run: PolicyRun, events_inherited: int) -> Dict[str, object]:
    s, f = run.summary, run.fairness
    return {
        "events_simulated": run.result.events_processed - events_inherited,
        "n_jobs": s.n_jobs,
        "avg_wait": s.avg_wait,
        "avg_turnaround": s.avg_turnaround,
        "utilization": s.utilization,
        "percent_unfair": f.percent_unfair,
        "avg_miss_time": f.average_miss_time,
        "digest": run.result.digest(),
    }
