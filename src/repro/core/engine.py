"""Event-driven simulation engine.

The engine owns the clock, the event queue, the cluster, the scheduler and
the observers, and nothing it owns keeps the engine.  The scheduler owns
the waiting jobs and all policy decisions.  At every event the engine
performs bookkeeping (complete jobs, deliver arrivals, fire timers) and
then lets the scheduler run a scheduling pass, mirroring the paper's
simulator ("at each scheduling event (job completion and job arrival), the
queue was processed..."), and launches the jobs the pass started.

Chunk chains (from the runtime-limit transform) are driven here: when a
chunk completes, its successor chunk is submitted at that instant, exactly
like a user resubmitting from a checkpoint.
"""

from __future__ import annotations

import copy
import enum
import math
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from ..obs import counters as _counters
from .cluster import Cluster
from .events import Event, EventKind, EventQueue
from .job import Job, JobState
from .results import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - sched.base imports this module
    from ..sched.base import BaseScheduler


class KillPolicy(enum.Enum):
    """What happens when a job reaches its wall-clock limit.

    * ``NEVER`` — jobs always run their full trace runtime.
    * ``AT_WCL`` — hard enforcement: runtime truncated to the WCL.
    * ``IF_NEEDED`` — the CPlant rule (Section 2.2): "the scheduler kills
      jobs after the WCL is reached; however, if no other job requires the
      processors, the job is allowed to continue running until the
      processors are needed."  An overrunning job is killed the moment a
      waiting job cannot fit in the free nodes; otherwise it is re-checked
      periodically until its natural completion.
    """

    NEVER = "never"
    AT_WCL = "at_wcl"
    IF_NEEDED = "if_needed"


@runtime_checkable
class Observer(Protocol):
    """The frozen engine observer contract; all hooks are optional overrides.

    This is a :func:`typing.runtime_checkable` Protocol: anything passed as
    an engine observer — metric observers, :class:`repro.obs.trace.
    TraceObserver`, service subscribers — must satisfy it structurally, and
    the engine enforces ``isinstance(obs, Observer)`` at construction.  The
    easiest way to conform is to subclass ``Observer`` and inherit the
    no-op defaults; a pure-structural conformer must implement every hook.

    The telemetry hooks (``on_schedule_pass``, ``on_kill``,
    ``on_chunk_chain``) are only invoked for observers that actually
    override them — the engine detects overrides at construction, so a
    run without tracing pays nothing for the hook points.
    ``on_attach`` reads what the observer needs and keeps no engine.
    """

    def on_attach(self, engine: "Engine") -> None: ...
    def on_arrival(self, job: Job, now: float) -> None: ...
    def on_start(self, job: Job, now: float) -> None: ...
    def on_completion(self, job: Job, now: float) -> None: ...
    def on_end(self, now: float) -> None: ...
    def collect(self, result: SimulationResult) -> None: ...

    # -- telemetry hooks (dispatched only to overriders) ----------------------

    def on_schedule_pass(self, now: float, reason: str, queue_depth: int,
                         running: int, free_nodes: int, started: int) -> None:
        """After each scheduling pass: the event that triggered it
        (``reason``), the queue/machine state it saw (snapshotted before
        the scheduler ran), and how many jobs the pass started."""

    def on_kill(self, job: Job, now: float) -> None:
        """A running job killed by the wall-clock-limit rule."""

    def on_chunk_chain(self, job: Job, successor: Job, now: float) -> None:
        """A completed chunk submitting its chain successor."""


#: every hook an :class:`Observer` must expose (the protocol surface)
OBSERVER_HOOKS: Tuple[str, ...] = (
    "on_attach", "on_arrival", "on_start", "on_completion", "on_end",
    "collect", "on_schedule_pass", "on_kill", "on_chunk_chain",
)


class Engine:
    """Run one workload through one scheduler on one cluster."""

    def __init__(
        self,
        cluster: Cluster,
        scheduler: "BaseScheduler",
        jobs: Sequence[Job],
        observers: Iterable[Observer] = (),
        kill_policy: KillPolicy = KillPolicy.NEVER,
        validate: bool = False,
        max_events: Optional[int] = None,
        wcl_check_interval: float = 900.0,
    ) -> None:
        self.cluster = cluster
        self.scheduler = scheduler
        self.observers: List[Observer] = list(observers)
        self.kill_policy = kill_policy
        self.validate = validate
        self.max_events = max_events
        self.wcl_check_interval = wcl_check_interval
        #: pending natural-completion events, cancellable by a WCL kill
        self._completion_events: Dict[int, Event] = {}

        self.now = 0.0
        self.events = EventQueue()
        self._events_processed = 0
        self._jobs: List[Job] = []
        self._job_ids: set = set()
        self._outstanding = 0
        self._result: Optional[SimulationResult] = None

        # chunk chains: (parent_id, chunk_index) -> job; chunks beyond the
        # first are submitted when their predecessor completes.
        self._successors: Dict[Tuple[int, int], Job] = {}
        #: job id -> runtime / WCL still to come in its chunk chain (absent
        #: for ordinary jobs and final chunks), read by fairness and SRPT
        self.tail_runtime: Dict[int, float] = {}
        self.tail_wcl: Dict[int, float] = {}

        self._register(jobs)

        for obs in self.observers:
            if not isinstance(obs, Observer):
                missing = [
                    h for h in OBSERVER_HOOKS
                    if not callable(getattr(obs, h, None))
                ]
                raise TypeError(
                    f"{type(obs).__name__} does not satisfy the Observer "
                    f"protocol; missing hooks: {missing}"
                )

        # telemetry hook dispatch lists: only observers that override a
        # hook are called, so the common (untraced) run never pays for
        # the per-pass state snapshot or the extra calls
        self._pass_observers = [
            o for o in self.observers
            if type(o).on_schedule_pass is not Observer.on_schedule_pass
        ]
        self._kill_observers = [
            o for o in self.observers
            if type(o).on_kill is not Observer.on_kill
        ]
        self._chain_observers = [
            o for o in self.observers
            if type(o).on_chunk_chain is not Observer.on_chunk_chain
        ]

        scheduler.attach(self)
        for obs in self.observers:
            obs.on_attach(self)

    # -- job registration (shared by the constructor and ingest) ---------------

    def _register(self, jobs: Sequence[Job]) -> List[Job]:
        """Fresh-copy, validate, and queue a batch of jobs for arrival.

        A chunk chain must be registered whole in one batch (the
        runtime-limit transform emits them together); only the head chunk
        gets an arrival event, successors are submitted on completion.
        """
        fresh = [j.fresh_copy() for j in jobs]

        oversized = [j.id for j in fresh if j.nodes > self.cluster.size]
        if oversized:
            raise ValueError(
                f"jobs wider than the cluster ({self.cluster.size} nodes): "
                f"{oversized[:5]}"
            )
        dupes = [j.id for j in fresh if j.id in self._job_ids]
        if dupes:
            raise ValueError(f"duplicate job ids: {dupes[:5]}")

        chains: Dict[int, List[Job]] = {}
        for job in fresh:
            if job.is_chunk and job.chunk_index > 0:
                self._successors[(job.parent_id, job.chunk_index)] = job
            if job.is_chunk:
                chains.setdefault(job.parent_id, []).append(job)
        for chunks in chains.values():
            chunks.sort(key=lambda c: c.chunk_index)
            rt = wcl = 0.0
            for c in reversed(chunks):
                self.tail_runtime[c.id] = rt
                self.tail_wcl[c.id] = wcl
                rt += c.runtime
                wcl += c.wcl

        for job in fresh:
            if not (job.is_chunk and job.chunk_index > 0):
                self.events.push(job.submit_time, EventKind.ARRIVAL, job)
            self._job_ids.add(job.id)
        self._jobs.extend(fresh)
        self._outstanding += len(fresh)
        return fresh

    # -- incremental lifecycle --------------------------------------------------
    #
    # ``run()`` is the classic one-shot entry point: ``finish()`` on a
    # fresh engine.  The service layer drives the same engine
    # incrementally instead:
    #
    #     engine.ingest(batch_1); engine.step_until(t1)
    #     engine.ingest(batch_2); engine.step_until(t2)
    #     result = engine.finish()
    #
    # State persists between arrivals — nothing is rebuilt per batch — and
    # both paths go through one event loop (``step_until``), so a
    # step-driven run over the same job set processes exactly the events a
    # one-shot ``run()`` would, in the same order, and results (and
    # digests) are byte-identical.

    @property
    def finished(self) -> bool:
        return self._result is not None

    def ingest(self, jobs: Sequence[Job]) -> List[Job]:
        """Submit more jobs to a live engine; returns the engine's copies.

        Jobs must arrive in the simulation's future (``submit_time >=
        now``) — the clock never rewinds.  Ingesting the full trace up
        front and stepping is equivalent to a one-shot :meth:`run`.
        """
        if self._result is not None:
            raise RuntimeError("cannot ingest into a finished engine")
        late = [j.id for j in jobs
                if not (j.is_chunk and j.chunk_index > 0)
                and j.submit_time < self.now]
        if late:
            raise ValueError(
                f"cannot ingest jobs submitted before the clock "
                f"(now={self.now}): {late[:5]}"
            )
        return self._register(jobs)

    def step_until(self, until: float = math.inf, inclusive: bool = True) -> int:
        """Process every due event with ``time <= until``; return the count.

        The clock (``self.now``) only moves when an event is dispatched,
        preserving the engine invariant that time advances on events.  An
        idle engine (every ingested job completed) pauses — pending timer
        chains are deferred, not discarded, and fire in order once new
        work is ingested, so an incrementally-driven run dispatches the
        exact event sequence of a one-shot run over the merged trace.

        ``inclusive=False`` stops strictly *before* ``until``: a caller
        that may still ingest jobs arriving exactly at ``until`` must not
        process same-time timer events first, because arrivals order ahead
        of timers at equal timestamps in a one-shot run.
        """
        if self._result is not None:
            raise RuntimeError("engine already finished")
        before = self._events_processed
        events = self.events
        while self._outstanding and events:
            nxt = events.peek()
            if nxt is None:
                break
            if nxt.time > until or (not inclusive and nxt.time >= until):
                break
            self._process(events.pop())
        return self._events_processed - before

    def finish(self) -> SimulationResult:
        """Drain all remaining work and seal the run (idempotent)."""
        if self._result is None:
            self.step_until(math.inf)
            self._result = self._finalize()
        return self._result

    def fork(self) -> "Engine":
        """Deep-copy the live engine — cluster, scheduler, queues, pending
        events, observers — for warm-started what-if simulation.

        The fork shares only the completed jobs with the original: a
        completed job is never mutated again, so both engines hold the
        same objects and the copy costs the live state, not the history.
        Everything else is copied.  Draining the fork answers "what
        happens to the current backlog under changed settings" without
        re-simulating completed history, while the live engine keeps
        running.  Observers must be deep-copyable (file-backed trace
        sinks are not; in-memory observers are).
        """
        if self._result is not None:
            raise RuntimeError("cannot fork a finished engine")
        done = JobState.COMPLETED
        return copy.deepcopy(
            self, {id(j): j for j in self._jobs if j.state is done}
        )

    # -- main loop -----------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Drain the whole run in one go; unlike :meth:`finish`, a second
        call raises."""
        if self._result is not None:
            raise RuntimeError("engine already finished")
        return self.finish()

    def _process(self, ev: Event) -> None:
        if self.max_events is not None and self._events_processed >= self.max_events:
            raise RuntimeError(
                f"exceeded max_events={self.max_events}; "
                "likely a scheduler livelock"
            )
        self._events_processed += 1
        if ev.time < self.now:
            raise RuntimeError(
                f"time went backwards: {ev.time} < {self.now} ({ev.kind})"
            )
        self.now = ev.time
        self._dispatch(ev)
        if self.validate:
            self.cluster.check_invariants()

    def _finalize(self) -> SimulationResult:
        if self.cluster.running_count:
            raise RuntimeError("event queue drained with jobs still running")
        stranded = self.scheduler.waiting_jobs()
        if stranded:
            raise RuntimeError(
                f"scheduler stranded {len(stranded)} queued jobs "
                f"(first: {stranded[0].id}); the policy never started them"
            )

        c = _counters.ACTIVE
        if c is not None:
            # one batched increment at end-of-run, not one per event
            c.hit("engine.events", self._events_processed)

        for obs in self.observers:
            obs.on_end(self.now)

        result = SimulationResult(
            jobs=self._jobs,
            cluster_size=self.cluster.size,
            end_time=self.now,
            events_processed=self._events_processed,
        )
        for obs in self.observers:
            obs.collect(result)
        return result

    @property
    def jobs(self) -> List[Job]:
        """Every job registered so far (the engine's own copies)."""
        return self._jobs

    @property
    def events_processed(self) -> int:
        """Events dispatched so far (a fork inherits the parent's count)."""
        return self._events_processed

    # -- event handling ------------------------------------------------------------

    def _dispatch(self, ev: Event) -> None:
        if ev.kind is EventKind.COMPLETION:
            # simultaneous completions are one scheduling event: freeing
            # them one pass at a time would let a scheduler misread a
            # just-finishing peer (completion pending at this very instant)
            # as an overrunning job
            batch = [ev.payload]
            while True:
                nxt = self.events.peek()
                if (nxt is None or nxt.kind is not EventKind.COMPLETION
                        or nxt.time != ev.time):
                    break
                batch.append(self.events.pop().payload)
                self._events_processed += 1
            for job in batch:
                self._completion_events.pop(job.id, None)
            self._handle_completions(batch)
        elif ev.kind is EventKind.ARRIVAL:
            self._handle_arrival(ev.payload)
        elif ev.kind is EventKind.WCL_CHECK:
            self._handle_wcl_check(ev.payload)
        else:
            self.scheduler.on_timer(ev.payload, self.now, ev.kind)
            self._run_pass("timer")

    def _handle_wcl_check(self, job: Job) -> None:
        """The CPlant IF_NEEDED rule: an overrunning job is killed the
        moment some waiting job cannot fit in the currently free nodes."""
        if job.state is not JobState.RUNNING:
            return
        free = self.cluster.free_nodes
        needed = any(w.nodes > free for w in self.scheduler.waiting_jobs())
        if needed:
            pending = self._completion_events.pop(job.id, None)
            if pending is not None:
                self.events.cancel(pending)
            c = _counters.ACTIVE
            if c is not None:
                c.hit("engine.wcl_kill")
            for obs in self._kill_observers:
                obs.on_kill(job, self.now)
            self._handle_completions([job])
        else:
            self.events.push(
                self.now + self.wcl_check_interval, EventKind.WCL_CHECK, job
            )

    def _handle_arrival(self, job: Job) -> None:
        job.state = JobState.QUEUED
        job.submit_time = self.now if job.is_chunk and job.chunk_index > 0 else job.submit_time
        self.scheduler.enqueue(job, self.now)
        # fairness observers snapshot state *after* the job is queued but
        # *before* any start decision at this instant (Section 4.1: "the
        # state of the scheduler upon job arrival").
        for obs in self.observers:
            obs.on_arrival(job, self.now)
        self._run_pass("arrival")

    def _handle_completions(self, jobs: List[Job]) -> None:
        for job in jobs:
            self.cluster.finish(job, self.now)
            self._outstanding -= 1
            self.scheduler.on_completion(job, self.now)
            for obs in self.observers:
                obs.on_completion(job, self.now)
            if job.is_chunk:
                succ = self._successors.pop(
                    (job.parent_id, job.chunk_index + 1), None
                )
                if succ is not None:
                    self.events.push(self.now, EventKind.ARRIVAL, succ)
                    c = _counters.ACTIVE
                    if c is not None:
                        c.hit("engine.chunk_resubmit")
                    for obs in self._chain_observers:
                        obs.on_chunk_chain(job, succ, self.now)
        self._run_pass("completion")

    def _run_pass(self, reason: str) -> None:
        pass_observers = self._pass_observers
        if pass_observers:
            # pre-pass snapshot: the state the scheduler is about to act on
            queue_depth = len(self.scheduler.waiting_jobs())
            running = self.cluster.running_count
            free = self.cluster.free_nodes
        c = _counters.ACTIVE
        if c is not None:
            c.hit("engine.schedule_pass")
        started = self.scheduler.started
        self.scheduler.schedule(self.now, reason)
        # in start order: equal-time completions are delivered in push order
        now, kill, push = self.now, self.kill_policy, self.events.push
        for job in started:
            duration = job.runtime
            if kill is KillPolicy.AT_WCL:
                duration = min(duration, job.wcl)
            ev = push(now + duration, EventKind.COMPLETION, job)
            if kill is KillPolicy.IF_NEEDED and job.runtime > job.wcl:
                self._completion_events[job.id] = ev
                push(now + job.wcl, EventKind.WCL_CHECK, job)
            for obs in self.observers:
                obs.on_start(job, now)
        if pass_observers:
            for obs in pass_observers:
                obs.on_schedule_pass(
                    now, reason, queue_depth, running, free, len(started)
                )
        started.clear()
