"""Fault-tolerant parallel campaign execution.

Grid cells are embarrassingly parallel (each is one full simulation), so
the executor fans missing cells out over a :class:`ProcessPoolExecutor`
and streams completions back in arbitrary order; determinism lives in the
cells themselves (pure worker + seeded generators), not in scheduling, so
``--jobs 4`` and ``--jobs 1`` produce bit-identical metrics.

The worker, :func:`run_family`, is a pure top-level function: it builds
the cells' workload (memoized per worker process — one trace typically
feeds many policy cells) and runs it through :func:`repro.api.run`, the
facade every other path uses, then flattens the result into the
JSON-safe metric records the cache stores.  Its cells differ only in
their hybrid-FST reference orders and share one simulation: observers
never influence scheduling, so one run that observes every order they
ask for yields each of their records (:func:`run_cell` is the family of
one).  Such a family is the unit of work on every path; ``--jobs 1``
drives the same loop as the pool, with an in-process executor.

Because a 10k-cell sweep will meet real failures, the executor is a
*runtime*, not a loop (semantics in ``docs/ROBUSTNESS.md``):

* failed cells retry with capped exponential backoff
  (:class:`~.retry.RetryPolicy`); a cell that fails identically twice is
  quarantined instead of retried forever;
* worker loss (``BrokenProcessPool``) rebuilds the pool and resubmits
  the in-flight tasks, charging each task's first cell a conservative
  "kill" — a cell charged more than ``MAX_WORKER_KILLS`` is quarantined;
* a per-task wall-clock watchdog (``RetryPolicy.timeout``) kills and
  rebuilds the pool under a hung simulation instead of hanging the
  campaign (pool mode only — inline execution cannot preempt);
* every completion is journaled (:class:`~.journal.RunJournal`) so an
  interrupted run resumes exactly; ``keep_going`` converts terminal
  failures into an explicit accounting instead of an exception.

:func:`run_cells` keeps one record per run, a :class:`~.retry.RunReport`:
cell counts, wall time, workers, the cell-time summary, pool utilization,
the run's window of the cache stats, and every recovery event (echoed
into the obs counters ``campaign.retry``, ``campaign.pool_rebuild``,
``campaign.timeout`` and ``campaign.quarantined``).  ``--stats`` renders
it; fault-free runs take none of the recovery paths.
"""

from __future__ import annotations

import time
from collections import OrderedDict, defaultdict, deque
from concurrent.futures import (
    FIRST_COMPLETED, Executor, Future, ProcessPoolExecutor, wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..experiments import runner as _runner
from ..experiments.export import policy_run_record
from ..obs import counters as _counters
from ..obs.log import get_logger
from ..obs.stats import timing_summary, utilization
from ..sched.registry import get_policy
from ..workload.model import Workload
from . import faults
from .aggregate import aggregate_cells
from .cache import CampaignCache, canonical_digest, cell_key
from .journal import JOURNAL_DIR_NAME, PathLike, RunJournal
from .retry import (
    MAX_WORKER_KILLS,
    CellFailure,
    CellState,
    CellTimeout,
    RetryPolicy,
    RunReport,
    WorkerLost,
    failure_signature,
)
from .spec import CampaignCell, CampaignSpec, WorkloadSpec, _swf_digest

log = get_logger("repro.campaign")

#: progress callback: (done, total, cell, source, elapsed) with source in
#: {"cache", "run", "journal"}; ``elapsed`` is the cell's in-worker
#: execution time in seconds (0.0 for cache/journal hits, which complete
#: instantly)
ProgressFn = Callable[[int, int, CampaignCell, str, float], None]

# per-process workload memo: many cells share one (workload, seed) instance.
# LRU eviction (not clear-all): a policy sweep interleaving a handful of
# workloads must not flush the whole set when one extra workload appears.
_WL_CACHE: "OrderedDict[Tuple, Workload]" = OrderedDict()
_WL_CACHE_MAX = 8


def _workload_key(workload: WorkloadSpec, seed: Optional[int]) -> Tuple:
    """Identity of a generated workload (cells differing only in
    policy/options share it — and share the built object)."""
    key: Tuple = (workload, seed)
    if workload.kind == "swf":
        # the spec compares equal across a trace edit; the content digest
        # doesn't — without it an in-process edit would serve the stale
        # workload and poison the cache under the new content hash
        key += (_swf_digest(str(workload.path)),)
    return key


def memo_workload(workload: WorkloadSpec, seed: Optional[int]) -> Workload:
    """``workload.build(seed)`` through this process's memo: the object
    inline cells already simulated when they ran here, else a fresh build
    that later cells reuse."""
    key = _workload_key(workload, seed)
    wl = _WL_CACHE.get(key)
    if wl is None:
        wl = workload.build(seed)
        _WL_CACHE[key] = wl
        if len(_WL_CACHE) > _WL_CACHE_MAX:
            _WL_CACHE.popitem(last=False)
    else:
        _WL_CACHE.move_to_end(key)
    return wl


def run_cell(cell: CampaignCell) -> Dict[str, object]:
    """Simulate one grid cell and return its JSON-safe metric record.

    Pure top-level function — picklable for process pools; a family of
    one for :func:`run_family`, the one implementation behind both
    ``--jobs 1`` and ``--jobs N``.
    """
    return run_family([cell])[0][0]


def family_key(cell: CampaignCell) -> str:
    """The cell's identity without its reference orders: cells with equal
    keys run the same simulation and differ only in the hybrid-FST
    orders their records report."""
    identity = cell.identity()
    identity["options"].pop("reference_orders", None)
    return canonical_digest(identity)


def run_family(
    cells: Sequence[CampaignCell],
) -> List[Tuple[Dict[str, object], float]]:
    """Records of cells with one :func:`family_key`, from one simulation.

    The run observes the union of the cells' reference orders (fairshare
    first) and each record is derived from it under the cell's own
    options, so it equals the record :func:`run_cell` gives that cell
    alone.  Each record comes with the seconds it took; the first one's
    include the simulation.  Only records leave: the simulation result
    is dropped here.
    """
    from .. import api  # deferred: the facade imports campaign lazily too

    base = cells[0]
    options = replace(base.options, reference_orders=tuple(
        o for c in cells for o in c.options.reference_orders))
    t0 = time.perf_counter()
    run = api.run(api.SimulationRequest(
        policy=base.policy, workload=memo_workload(base.workload, base.seed),
        options=options,
    ))
    split = get_policy(base.policy).max_runtime is not None
    out: List[Tuple[Dict[str, object], float]] = []
    for cell in cells:
        if cell.options != options:
            run_for_cell = _runner.derive_policy_run(
                cell.policy, run.result, cell.options, split=split)
        else:
            run_for_cell = run
        record = policy_run_record(run_for_cell)
        t1 = time.perf_counter()
        out.append((record, t1 - t0))
        t0 = t1
    return out


def _run_task(
    cells: Sequence[CampaignCell],
    key: str,
    attempt: int,
    inline: bool,
    held: Optional[Tuple[Dict[str, object], float]] = None,
) -> List[Tuple[Dict[str, object], float]]:
    """Worker entry for one task: ``cells[0]``'s ``cell.run`` fault check,
    then its ``held`` record (a sibling's, kept by the driver) if given,
    else one simulation for every cell (:func:`run_family`), each record
    with its execution time measured *in* the worker (a
    submit-to-completion clock would fold in pool queue wait).

    ``attempt`` is tracked by the parent so the deterministic fault layer
    sees a count that survives worker death; ``inline`` degrades
    worker-kill faults to a raise when there is no worker to kill.
    """
    plan = faults.active_plan()
    if plan is not None:
        fault = plan.check("cell.run", key, attempt)
        if fault is not None:
            fault.fire(inline=inline)
    return [held] if held is not None else run_family(cells)


class _InlineExecutor(Executor):
    """The executor of ``--jobs 1``: ``submit`` runs the task in the
    driver and returns its future already done, so no deadline ever
    expires on it — inline execution cannot preempt a simulation."""

    def submit(self, fn, /, *args, **kwargs):
        fut: Future = Future()
        try:
            fut.set_result(fn(*args, **kwargs))
        except Exception as exc:
            fut.set_exception(exc)
        return fut


@dataclass
class CellResult:
    """One cell's metrics plus where they came from."""

    cell: CampaignCell
    key: str
    metrics: Dict[str, object]
    cached: bool
    elapsed: float = 0.0


@dataclass
class CampaignResult:
    """Every completed cell's outcome, in grid order, plus the run's
    record.  With ``keep_going`` the result may be partial —
    ``stats.failures`` lists what is missing, and :meth:`aggregate`
    carries an explicit ``incomplete`` block."""

    spec: CampaignSpec
    results: List[CellResult]
    stats: RunReport

    @property
    def n_cells(self) -> int:
        return self.stats.n_cells

    @property
    def n_cached(self) -> int:
        return self.stats.n_cached

    @property
    def n_simulated(self) -> int:
        return self.stats.n_simulated

    @property
    def n_failed(self) -> int:
        return self.stats.n_failed

    def aggregate(self) -> Dict[str, object]:
        """Per-group statistics across seeds (see :mod:`.aggregate`).

        A partial (``keep_going``) result aggregates what completed and
        accounts for the rest in an ``incomplete`` block, so a consumer
        can never mistake a survivor-only mean for a full one.
        """
        doc = aggregate_cells(self.results, campaign=self.spec.name)
        if self.stats.failures:
            doc["incomplete"] = {
                "n_failed": self.stats.n_failed,
                "failed": [
                    {
                        "key": f.key,
                        "cell": f.cell.label() if isinstance(
                            f.cell, CampaignCell) else str(f.cell),
                        "kind": f.kind,
                        "error": f.error,
                        "attempts": f.attempts,
                        "quarantined": f.quarantined,
                    }
                    for f in sorted(self.stats.failures, key=lambda f: f.key)
                ],
            }
        return doc


def _counter_hit(name: str) -> None:
    c = _counters.ACTIVE
    if c is not None:
        c.hit(name)


def run_cells(
    cells: Sequence[CampaignCell],
    jobs: int = 1,
    cache: Optional[CampaignCache] = None,
    force: bool = False,
    progress: Optional[ProgressFn] = None,
    *,
    retry: Optional[RetryPolicy] = None,
    journal: Optional[str] = None,
    journal_dir: Optional[PathLike] = None,
    resume: bool = False,
    keep_going: bool = False,
    report: Optional[RunReport] = None,
) -> List[CellResult]:
    """Execute an explicit cell list: journal replays and cache lookups
    first, then the missing cells — one task per family of cells that
    differ only in reference orders, inline for ``jobs <= 1`` or a single
    task, else across a self-healing process pool (:func:`_run_pool`) —
    with results streamed back (journaled and cached) per cell as they
    complete.

    Results come back aligned with the input order regardless of
    completion order.  This is the shared execution core: campaign
    sweeps call it on an expanded grid, the paper-artifact builder on a
    deduplicated union of artifact requirements.

    ``journal`` names the run: it journals its completions to the grid's
    auto-named :class:`~.journal.RunJournal`, labelled ``journal``, under
    ``journal_dir`` (default: the cache root's ``journals/``; no journal
    without either), and with ``resume=True`` replays it first.
    ``resume`` without a journal raises ``ValueError``: there is nothing
    to replay, and re-running every cell silently would pass for a
    resume.

    ``retry`` defaults to :class:`RetryPolicy` (retries on, watchdog
    off); pass ``RetryPolicy(max_attempts=1)`` to restore fail-fast.
    With ``keep_going`` terminal failures are recorded in ``report``
    instead of raised, and the returned list simply omits the failed
    cells.  ``report`` (if given) is the run's record, filled in place —
    recovery counts as they happen, everything else when the run ends,
    even a run that dies mid-flight.
    """
    if journal_dir is None and cache is not None:
        journal_dir = cache.root / JOURNAL_DIR_NAME
    journaled = journal is not None and journal_dir is not None
    if resume and not journaled:
        raise ValueError(
            "resume needs a run journal, and run journals live under the "
            "cache root: resuming without a cache (--no-cache) cannot "
            "replay anything"
        )
    t0 = time.perf_counter()
    cells = list(cells)
    keys = [cell_key(c) for c in cells]
    policy = retry if retry is not None else RetryPolicy()
    rep = report if report is not None else RunReport()
    plan = faults.active_plan()
    slots: List[Optional[CellResult]] = [None] * len(cells)
    done = 0
    progress_ok = True
    stats_base = cache.stats.snapshot() if cache is not None else None
    failures: List[CellFailure] = []
    workers = 0

    replayed: Dict[str, Dict[str, object]] = {}
    run_journal = None
    if journaled:
        run_journal = RunJournal.at(journal_dir, keys, name=journal)
        if resume and not force:
            replayed = run_journal.completed_cells(keys)

    def _note(i: int, res: CellResult, source: str) -> None:
        # progress is advisory: a callback blowing up (closed pipe, UI gone)
        # must not abort the campaign or skip caching the remaining cells
        nonlocal done, progress_ok
        slots[i] = res
        done += 1
        if run_journal is not None and source != "journal":
            run_journal.record(keys[i], res.metrics, source)
        if progress is not None and progress_ok:
            try:
                progress(done, len(cells), cells[i], source, res.elapsed)
            except Exception as exc:
                progress_ok = False
                log.warning(
                    "progress callback raised %r; suppressing further "
                    "progress reports for this run", exc,
                )
        if plan is not None:
            fault = plan.check("driver.tick", str(done))
            if fault is not None:
                fault.fire()

    def _fail(i: int, state: CellState, exc: BaseException, kind: str,
              quarantined: bool) -> None:
        failures.append(CellFailure(
            cell=cells[i], key=keys[i], kind=kind,
            error=failure_signature(exc), attempts=state.attempts,
            quarantined=quarantined, exc=exc,
        ))
        if quarantined:
            rep.quarantined += 1
            _counter_hit("campaign.quarantined")
        if run_journal is not None:
            run_journal.record_failure(keys[i], kind, failure_signature(exc),
                                       state.attempts, quarantined)
        log.warning("cell %s %s after %d attempt(s): %s",
                    cells[i].label(),
                    "quarantined" if quarantined else "failed",
                    state.attempts, failure_signature(exc))

    def _finish(i: int, metrics: Dict[str, object], dt: float) -> None:
        if cache is not None:
            cache.put(keys[i], cells[i].identity(), metrics)
        _note(
            i,
            CellResult(cell=cells[i], key=keys[i], metrics=metrics,
                       cached=False, elapsed=dt),
            "run",
        )

    try:
        if run_journal is not None:
            run_journal.begin(keys, resuming=resume)
        family: Dict[int, List[int]] = {}  # cell -> its family's cells
        groups: Dict[str, List[int]] = {}
        for i, (c, k) in enumerate(zip(cells, keys)):
            if not force and k in replayed:
                rep.journal_cells += 1
                _note(i, CellResult(cell=c, key=k, metrics=replayed[k],
                                    cached=True), "journal")
                continue
            rec = cache.get(k) if (cache is not None and not force) else None
            if rec is not None:
                _note(i, CellResult(cell=c, key=k, metrics=rec, cached=True),
                      "cache")
            else:
                family[i] = groups.setdefault(family_key(c), [])
                family[i].append(i)
        if family:
            # jobs <= 1, or a single task (one family), runs inline
            workers = max(1, min(jobs, len(groups)))
            _run_pool(cells, keys, family, workers, policy, rep, _finish,
                      _fail)
        if run_journal is not None:
            run_journal.end(completed=done, failed=len(failures))
    finally:
        if run_journal is not None:
            run_journal.close()
        ran = [r for r in slots if r is not None and not r.cached]
        sim_times = [r.elapsed for r in ran]
        if ran:
            slowest = max(ran, key=lambda r: r.elapsed).cell
            rep.slowest = (f"{slowest.label()} (orders "
                           f"{','.join(slowest.options.reference_orders)})")
        rep.n_cells = done
        rep.n_simulated = len(sim_times)
        rep.n_cached = done - len(sim_times)
        rep.wall = time.perf_counter() - t0
        rep.workers = workers
        rep.cell_seconds = timing_summary(sim_times)
        rep.pool_utilization = utilization(sum(sim_times), rep.wall, workers)
        if stats_base is not None:
            rep.cache = cache.stats.since(stats_base)

    window = rep.cache
    if window is not None and window.corrupt:
        shown = ", ".join(window.corrupt_keys[:3])
        more = ("" if window.corrupt <= 3
                else f" (+{window.corrupt - 3} more)")
        log.warning(
            "%d corrupt cache entr%s re-simulated: %s%s",
            window.corrupt, "y" if window.corrupt == 1 else "ies",
            shown, more,
        )

    if failures:
        rep.failures.extend(failures)
        if not keep_going:
            detail = "; ".join(f"{f.cell.label()}: {f.error}"
                               for f in failures[:5])
            more = "" if len(failures) <= 5 else f" (+{len(failures) - 5} more)"
            quarantined = sum(1 for f in failures if f.quarantined)
            qnote = f", {quarantined} quarantined" if quarantined else ""
            err = RuntimeError(
                f"{len(failures)}/{len(cells)} campaign cells failed"
                f"{qnote} ({done} completed and cached): {detail}{more}"
            )
            err.failures = list(failures)  # type: ignore[attr-defined]
            raise err from failures[0].exc

    return [r for r in slots if r is not None]


def _run_pool(
    cells: Sequence[CampaignCell],
    keys: Sequence[str],
    family: Dict[int, List[int]],
    max_workers: int,
    policy: RetryPolicy,
    rep: RunReport,
    _finish: Callable[[int, Dict[str, object], float], None],
    _fail: Callable[[int, CellState, BaseException, str, bool], None],
) -> None:
    """The execution loop of every ``jobs`` value: a self-healing process
    pool, or for ``max_workers == 1`` an in-process executor that runs
    each task as it is submitted.

    ``family`` maps each cell to run onto the list of its
    :func:`family_key`'s waiting members.  A task belongs to its first
    waiting member: that cell's fault check fires, then one simulation
    yields the records of every waiting member (:func:`run_family`).
    The others ride along: they keep their queue places, are skipped
    while the task is in flight, and the driver holds their records until
    each one's own turn.  There a sibling passes its own fault check in
    the driver, then its retries, journal line and cache put, exactly as
    a simulated cell does; a retry serves the held record again.

    Submission is bounded at ``max_workers`` outstanding tasks — this
    keeps each worker fed (the loop refills on every completion) while
    keeping worker-loss *blame* tight: when the pool breaks, every
    in-flight task's first cell is charged one kill, and with bounded
    submission "in-flight" means "actually running", not "queued behind
    500 others".  Riders are never charged: they go back to the queue
    and form the next task.
    """
    # pool tasks go out grouped by workload identity, so each worker sees
    # long runs of the same workload and its per-process memo regenerates
    # far fewer traces; inline keeps the cells' order
    order = list(family) if max_workers == 1 else sorted(
        family, key=lambda i: (repr(cells[i].workload), cells[i].seed, i))
    unsubmitted: "deque[int]" = deque(order)
    pending_retry: List[Tuple[float, int]] = []  # (ready time, cell index)
    states: Dict[int, CellState] = defaultdict(CellState)
    futures: Dict[Future, List[int]] = {}  # task -> its cells, owner first
    deadlines: Dict[Future, float] = {}
    held: Dict[int, Tuple[Dict[str, object], float]] = {}
    riding: Set[int] = set()
    inline = _InlineExecutor()
    pool: Executor = (inline if max_workers == 1
                      else ProcessPoolExecutor(max_workers=max_workers))

    def _submit(i: int) -> None:
        st = states[i]
        members = [i] if i in held else [i] + [
            j for j in family[i] if j != i and j not in held]
        executor = inline if i in held else pool
        # the fault-layer occurrence number counts charged kills too:
        # worker-loss resubmission does not consume a retry attempt, but a
        # `times: 1` kill rule must not re-fire on the resubmitted cell
        try:
            fut = executor.submit(
                _run_task, [cells[j] for j in members], keys[i],
                st.attempts + st.worker_kills, executor is inline,
                held.get(i))
        except BrokenProcessPool:
            # the pool broke while idle (e.g. an OOM-killed worker between
            # tasks); push the cell back and rebuild
            unsubmitted.appendleft(i)
            _rebuild(charge_kills=True)
            return
        futures[fut] = members
        riding.update(members[1:])
        if policy.timeout is not None:
            deadlines[fut] = time.monotonic() + policy.timeout

    def _take(fut: Future) -> List[int]:
        """Retire a task; its riders are free to form the next one."""
        deadlines.pop(fut, None)
        members = futures.pop(fut)
        riding.difference_update(members)
        return members

    def _done(members: List[int], out: List[Tuple[Dict[str, object], float]]
              ) -> None:
        held.update(zip(members[1:], out[1:]))
        i = members[0]
        family[i].remove(i)
        if held.pop(i, None) is not None:
            rep.n_shared += 1
            _counter_hit("campaign.cell_shared")
        _finish(i, *out[0])

    def _on_failure(i: int, exc: BaseException) -> None:
        state = states[i]
        action = state.classify(exc, policy)
        if action == "retry":
            rep.retries += 1
            _counter_hit("campaign.retry")
            log.info("retrying cell %s (attempt %d/%d) after %s",
                     cells[i].label(), state.attempts + 1,
                     policy.max_attempts, failure_signature(exc))
            pending_retry.append(
                (time.monotonic() + policy.backoff(state.attempts), i))
        else:
            family[i].remove(i)
            held.pop(i, None)
            kind = "timeout" if isinstance(exc, CellTimeout) else "error"
            _fail(i, state, exc, kind, action == "quarantine")

    def _rebuild(charge_kills: bool) -> None:
        """Tear the pool down, salvage finished tasks, requeue the rest;
        ``charge_kills`` charges the first cell of every unfinished
        in-flight task one worker kill (the worker-loss blame model)."""
        nonlocal pool
        rep.pool_rebuilds += 1
        _counter_hit("campaign.pool_rebuild")
        victims: List[int] = []
        salvaged: List[Tuple[List[int], list]] = []
        for fut in list(futures):
            members = _take(fut)
            if fut.done():
                try:
                    salvaged.append((members, fut.result()))
                except Exception:
                    victims.append(members[0])
            else:
                fut.cancel()
                victims.append(members[0])
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        pool = ProcessPoolExecutor(max_workers=max_workers)
        log.warning(
            "worker pool rebuilt (%d in-flight cells resubmitted)",
            len(victims),
        )
        for i in victims:
            state = states[i]
            if charge_kills:
                state.worker_kills += 1
                if state.worker_kills > MAX_WORKER_KILLS:
                    exc = WorkerLost(
                        f"cell killed its worker {state.worker_kills} times"
                    )
                    # worker-loss failures never consumed attempts, so the
                    # failure record carries the kill count instead
                    state.attempts = max(state.attempts, state.worker_kills)
                    family[i].remove(i)
                    _fail(i, state, exc, "worker-loss", True)
                    continue
            unsubmitted.appendleft(i)
        # salvage last: _finish may raise an injected driver abort, and
        # by now every victim is safely requeued (nothing is lost even
        # if this propagates)
        for members, out in salvaged:
            _done(members, out)

    try:
        while unsubmitted or pending_retry or futures:
            now = time.monotonic()
            ready = [i for t, i in pending_retry if t <= now]
            if ready:
                pending_retry = [(t, i) for t, i in pending_retry if t > now]
                unsubmitted.extendleft(reversed(ready))
            while len(futures) < max_workers:
                i = next((j for j in unsubmitted if j not in riding), None)
                if i is None:
                    break
                unsubmitted.remove(i)
                _submit(i)
            if not futures:
                if pending_retry:
                    time.sleep(max(0.0, min(t for t, _ in pending_retry)
                                   - time.monotonic()))
                continue

            wake = [*deadlines.values(), *(t for t, _ in pending_retry)]
            finished, _ = wait(
                set(futures), return_when=FIRST_COMPLETED,
                timeout=max(0.0, min(wake) - now) if wake else None)
            for fut in finished:
                try:
                    out = fut.result()
                except BrokenProcessPool:
                    # a worker died with this task in flight; the rebuild
                    # blames every in-flight task exactly once
                    _rebuild(charge_kills=True)
                    break
                except Exception as exc:
                    _on_failure(_take(fut)[0], exc)
                else:
                    _done(_take(fut), out)

            now = time.monotonic()
            expired = [fut for fut, dl in deadlines.items()
                       if dl <= now and not fut.done()]
            if expired:
                for fut in expired:
                    i = _take(fut)[0]
                    fut.cancel()
                    rep.timeouts += 1
                    _counter_hit("campaign.timeout")
                    _on_failure(i, CellTimeout(
                        f"cell exceeded the {policy.timeout:g}s "
                        f"wall-clock budget"
                    ))
                # the hung workers must die: terminate the pool's
                # processes, then rebuild; the other in-flight tasks are
                # requeued without blame (our kill, not theirs)
                for p in list((getattr(pool, "_processes", None)
                               or {}).values()):
                    try:
                        p.terminate()
                    except Exception:
                        pass
                _rebuild(charge_kills=False)
    finally:
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception:
            pass


def run_campaign(
    spec: CampaignSpec,
    jobs: int = 1,
    cache: Optional[CampaignCache] = None,
    force: bool = False,
    progress: Optional[ProgressFn] = None,
    *,
    retry: Optional[RetryPolicy] = None,
    keep_going: bool = False,
    resume: bool = False,
    journal_dir: Optional[PathLike] = None,
    report: Optional[RunReport] = None,
) -> CampaignResult:
    """Expand a spec and run its grid through :func:`run_cells`.

    The run writes — and with ``resume=True`` replays — the grid's
    auto-named crash-safe journal, named for the spec, where
    :func:`run_cells` puts it, so the same spec always maps to the same
    resume point.
    """
    rep = report if report is not None else RunReport()
    results = run_cells(
        spec.expand(), jobs=jobs, cache=cache, force=force,
        progress=progress, retry=retry,
        journal=spec.name, journal_dir=journal_dir, resume=resume,
        keep_going=keep_going, report=rep,
    )
    return CampaignResult(spec=spec, results=results, stats=rep)

