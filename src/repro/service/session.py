"""One live, incrementally-driven simulation (the in-process service core).

A :class:`LiveSimulation` wraps an :class:`~repro.core.engine.Engine` in its
incremental form — ``ingest / step_until / finish`` — built by the batch
path's :func:`~repro.experiments.runner.policy_engine`, metric observers
attached from the first event, so a session that is fed the same jobs a
batch run would read from a workload finishes with a byte-identical
:meth:`~repro.core.results.SimulationResult.digest`.

On top of the engine it adds the three service verbs:

* :meth:`snapshot` — live per-user fairness / utilization / queue depth,
  read from counters and per-user records the session updates with the
  jobs completed since the previous snapshot (no re-simulation, no
  rescan of history);
* :meth:`whatif` — fork the warm engine state, apply scheduler-parameter
  overrides to the fork, and drain both the variant and an unmodified
  baseline fork to completion.  Completed history is *inherited*, not
  re-simulated: both forks start at the parent's event count and share
  the parent's completed jobs, which keep their recorded times;
* :meth:`finish` — seal the run and derive the full
  :class:`~repro.experiments.runner.PolicyRun` bundle through the same
  pipeline as the batch path.
"""

from __future__ import annotations

from array import array
from bisect import bisect
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence

from ..core.engine import Engine, Observer
from ..core.job import Job
from ..experiments.runner import (
    PolicyRun,
    RunOptions,
    derive_policy_run,
    policy_engine,
)
from ..metrics.fairness import miss_times
from ..metrics.users import UserFairness, per_user_fairness, user_record
from ..sched.registry import get_policy, validate_overrides

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api imports us lazily)
    from ..api import SimulationRequest


class _Completions(Observer):
    """Counts completions and holds the jobs completed since the session
    last filed them.

    It rides inside the engine, so every fork copies it.  The copy stays
    small: every snapshot empties it, and the jobs it holds are completed
    ones, which forks share instead of copying.
    """

    def __init__(self) -> None:
        self.count = 0
        self.since: List[Job] = []

    def on_completion(self, job: Job, now: float) -> None:
        self.count += 1
        self.since.append(job)

    def take(self) -> List[Job]:
        taken, self.since = self.since, []
        return taken


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
        self._completions = _Completions()
        self.engine = policy_engine(
            spec, system_size, options, jobs, [*observers, self._completions]
        )
        #: the hybrid-FST observer (first of the metric stack)
        self._fst_obs = self.engine.observers[0]
        self._run: Optional[PolicyRun] = None
        #: job id -> position in ``engine.jobs``, for the jobs seen so far
        self._position: Dict[int, int] = {}
        #: user id -> (positions, misses, waits, areas) of the user's
        #: filed jobs, each in ``engine.jobs`` order; misses and waits
        #: are double arrays, which numpy reads without converting
        #: every element
        self._filed: Dict[int, tuple] = {}
        #: user id -> record over the user's filed jobs
        self._records: Dict[int, UserFairness] = {}

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

        Everything is read from state the engine, its metric observers
        and the session already maintain; taking a snapshot never
        schedules or simulates anything.  Its cost is the jobs completed
        since the previous snapshot plus the records of their users, not
        the run's history.
        """
        engine = self.engine
        cluster = engine.cluster
        submitted = len(engine.jobs)
        completed = self._completions.count
        running = cluster.running_count
        return {
            "now": engine.now,
            "events_processed": engine.events_processed,
            "jobs_submitted": submitted,
            "jobs_completed": completed,
            "jobs_running": running,
            "jobs_queued": submitted - completed - running,
            "free_nodes": cluster.free_nodes,
            "utilization_now": cluster.used_nodes / cluster.size,
            "per_user": self.per_user_metrics(),
        }

    def per_user_metrics(
        self, jobs: Optional[Sequence[Job]] = None
    ) -> Dict[str, Dict[str, float]]:
        """Per-user fairness over completed jobs, JSON-shaped.

        Without ``jobs``: the live records over every job completed so
        far.  With ``jobs`` (the final report passes
        ``finish().metric_jobs``): records rebuilt from those jobs by
        :func:`~repro.metrics.users.per_user_fairness`.  Both build each
        record with the same function over the same per-user job order,
        so a streamed session and an offline batch run of the merged
        trace render byte-identical payloads.
        """
        if jobs is None:
            self._file(self._completions.take())
            stats = self._records
        elif jobs:
            stats = per_user_fairness(
                jobs, self._fst_obs.fst, epsilon=self.options.epsilon
            )
        else:
            return {}
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

    def _file(self, done: List[Job]) -> None:
        """File newly completed jobs under their users, each at its
        ``engine.jobs`` position, and rebuild those users' records."""
        if not done:
            return
        position, jobs = self._position, self.engine.jobs
        for k in range(len(position), len(jobs)):
            position[jobs[k].id] = k
        misses = miss_times(done, self._fst_obs.fst)
        touched = set()
        for j in done:
            filed = self._filed.get(j.user_id)
            if filed is None:
                filed = self._filed[j.user_id] = (
                    [], array("d"), array("d"), []
                )
            pos = position[j.id]
            k = bisect(filed[0], pos)
            filed[0].insert(k, pos)
            filed[1].insert(k, misses[j.id])
            filed[2].insert(k, j.start_time - j.submit_time)
            filed[3].insert(k, j.area)
            touched.add(j.user_id)
        epsilon = self.options.epsilon
        for uid in touched:
            _, user_misses, waits, areas = self._filed[uid]
            self._records[uid] = user_record(
                uid, user_misses, waits, areas, epsilon
            )

    # -- warm what-if ------------------------------------------------------------

    def whatif(
        self, overrides: Mapping[str, object]
    ) -> Dict[str, object]:
        """Answer "what if the scheduler ran with these parameters from
        *now* on?" without re-simulating completed history.

        Two forks of the live engine are drained to completion: one
        untouched (the baseline the live run is heading for) and one with
        ``overrides`` applied to its scheduler.  Both inherit the parent's
        clock, queues, running jobs, and event count, so only the future
        is simulated; they share its completed jobs, which nothing
        mutates, and the live session itself is never perturbed.
        """
        validate_overrides(self.policy, overrides)
        events_before = self.engine.events_processed
        completed_before = self._completions.count
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
