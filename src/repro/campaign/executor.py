"""Fault-tolerant parallel campaign execution.

Grid cells are embarrassingly parallel (each is one full simulation), so
the executor fans missing cells out over a :class:`ProcessPoolExecutor`
and streams completions back in arbitrary order; determinism lives in the
cells themselves (pure worker + seeded generators), not in scheduling, so
``--jobs 4`` and ``--jobs 1`` produce bit-identical metrics.

The worker, :func:`run_cell`, is a pure top-level function: it builds the
cell's workload (memoized per worker process — one trace typically feeds
many policy cells) and runs it through :func:`repro.api.run`, the facade
every other path uses, then flattens the result into the JSON-safe metric
record the cache stores.

Because a 10k-cell sweep will meet real failures, the executor is a
*runtime*, not a loop (semantics in ``docs/ROBUSTNESS.md``):

* failed cells retry with capped exponential backoff
  (:class:`~.retry.RetryPolicy`); a cell that fails identically twice is
  quarantined instead of retried forever;
* worker loss (``BrokenProcessPool``) rebuilds the pool and resubmits
  the in-flight cells, charging each a conservative "kill" — a cell
  charged more than ``max_worker_kills`` is quarantined;
* a per-cell wall-clock watchdog (``RetryPolicy.timeout``) kills and
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
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..experiments.export import policy_run_record
from ..obs import counters as _counters
from ..obs.log import get_logger
from ..obs.stats import timing_summary, utilization
from ..workload.model import Workload
from . import faults
from .aggregate import aggregate_cells
from .cache import CampaignCache, cell_key
from .journal import JOURNAL_DIR_NAME, PathLike, RunJournal
from .retry import (
    CellFailure,
    CellState,
    CellTimeout,
    RetryPolicy,
    RunReport,
    WorkerLost,
    failure_signature,
)
from .spec import CampaignCell, CampaignSpec, _swf_digest

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


def _workload_key(cell: CampaignCell) -> Tuple:
    """Identity of the generated workload a cell simulates (cells differing
    only in policy/options share it — and share the built object)."""
    key: Tuple = (cell.workload, cell.seed)
    if cell.workload.kind == "swf":
        # the spec compares equal across a trace edit; the content digest
        # doesn't — without it an in-process edit would serve the stale
        # workload and poison the cache under the new content hash
        key += (_swf_digest(str(cell.workload.path)),)
    return key


def _cell_workload(cell: CampaignCell) -> Workload:
    key = _workload_key(cell)
    wl = _WL_CACHE.get(key)
    if wl is None:
        wl = cell.workload.build(cell.seed)
        _WL_CACHE[key] = wl
        if len(_WL_CACHE) > _WL_CACHE_MAX:
            _WL_CACHE.popitem(last=False)
    else:
        _WL_CACHE.move_to_end(key)
    return wl


def run_cell(cell: CampaignCell) -> Dict[str, object]:
    """Simulate one grid cell and return its JSON-safe metric record.

    Pure top-level function — picklable for process pools, and the single
    implementation behind both ``--jobs 1`` and ``--jobs N``.
    """
    from .. import api  # deferred: the facade imports campaign lazily too

    wl = _cell_workload(cell)
    handle = api.run(api.SimulationRequest(
        policy=cell.policy, workload=wl, options=cell.options,
    ))
    return policy_run_record(handle.run)


def _run_cell_timed(
    cell: CampaignCell,
    key: Optional[str] = None,
    attempt: int = 0,
    inline: bool = True,
) -> Tuple[Dict[str, object], float]:
    """Worker entry: metrics plus execution time measured *in* the worker
    (a submit-to-completion clock would fold in pool queue wait).

    ``attempt`` is tracked by the parent so the deterministic fault layer
    sees a count that survives worker death; ``inline`` degrades
    worker-kill faults to a raise when there is no worker to kill.
    """
    plan = faults.active_plan()
    if plan is not None:
        fault = plan.check("cell.run", key if key is not None
                           else cell_key(cell), attempt)
        if fault is not None:
            fault.fire(inline=inline)
    t0 = time.perf_counter()
    metrics = run_cell(cell)
    return metrics, time.perf_counter() - t0


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
    journal: Optional[Tuple[PathLike, str]] = None,
    resume: bool = False,
    keep_going: bool = False,
    report: Optional[RunReport] = None,
) -> List[CellResult]:
    """Execute an explicit cell list: journal replays and cache lookups
    first, then the missing cells — inline for ``jobs <= 1``, else across
    a self-healing process pool — with results streamed back (journaled
    and cached) as they complete.

    Results come back aligned with the input order regardless of
    completion order.  This is the shared execution core: campaign
    sweeps call it on an expanded grid, the paper-artifact builder on a
    deduplicated union of artifact requirements.

    ``journal`` is ``(directory, name)``: the run journals its
    completions to the grid's auto-named :class:`~.journal.RunJournal`
    in that directory, labelled ``name``, and with ``resume=True``
    replays it first.  ``resume`` without a ``journal`` raises
    ``ValueError``: there is nothing to replay, and re-running every
    cell silently would pass for a resume.

    ``retry`` defaults to :class:`RetryPolicy` (retries on, watchdog
    off); pass ``RetryPolicy(max_attempts=1)`` to restore fail-fast.
    With ``keep_going`` terminal failures are recorded in ``report``
    instead of raised, and the returned list simply omits the failed
    cells.  ``report`` (if given) is the run's record, filled in place —
    recovery counts as they happen, everything else when the run ends,
    even a run that dies mid-flight.
    """
    if resume and journal is None:
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
    if journal is not None:
        journal_dir, name = journal
        run_journal = RunJournal.at(journal_dir, keys, name=name)
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

    def _note_retry(i: int, state: CellState, exc: BaseException) -> None:
        rep.retries += 1
        _counter_hit("campaign.retry")
        log.info("retrying cell %s (attempt %d/%d) after %s",
                 cells[i].label(), state.attempts + 1, policy.max_attempts,
                 failure_signature(exc))

    def _finish(i: int, metrics: Dict[str, object], dt: float) -> None:
        if cache is not None:
            cache.put(keys[i], cells[i], metrics)
        _note(
            i,
            CellResult(cell=cells[i], key=keys[i], metrics=metrics,
                       cached=False, elapsed=dt),
            "run",
        )

    try:
        if run_journal is not None:
            run_journal.begin(keys, resuming=resume)
        todo: List[int] = []
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
                todo.append(i)

        if todo and (jobs <= 1 or len(todo) == 1):
            workers = 1
            _run_inline(cells, keys, todo, policy, _finish, _fail,
                        _note_retry)
        elif todo:
            workers = min(jobs, len(todo))
            _run_pool(cells, keys, todo, workers, policy, rep, _finish,
                      _fail, _note_retry)
        if run_journal is not None:
            run_journal.end(completed=done, failed=len(failures))
    finally:
        if run_journal is not None:
            run_journal.close()
        sim_times = [r.elapsed for r in slots
                     if r is not None and not r.cached]
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


def _run_inline(
    cells: Sequence[CampaignCell],
    keys: Sequence[str],
    todo: Sequence[int],
    policy: RetryPolicy,
    _finish: Callable[[int, Dict[str, object], float], None],
    _fail: Callable[[int, CellState, BaseException, str, bool], None],
    _note_retry: Callable[[int, CellState, BaseException], None],
) -> None:
    """The ``--jobs 1`` path: same retry semantics, no watchdog (a
    single-process driver cannot preempt its own simulation)."""
    for i in todo:
        state = CellState()
        while True:
            try:
                metrics, dt = _run_cell_timed(cells[i], keys[i],
                                              state.attempts, inline=True)
            except Exception as exc:
                action = state.classify(exc, policy)
                if action == "retry":
                    _note_retry(i, state, exc)
                    delay = policy.backoff(state.attempts)
                    if delay > 0:
                        time.sleep(delay)
                    continue
                _fail(i, state, exc, "error", action == "quarantine")
                break
            else:
                _finish(i, metrics, dt)
                break


def _run_pool(
    cells: Sequence[CampaignCell],
    keys: Sequence[str],
    todo: Sequence[int],
    max_workers: int,
    policy: RetryPolicy,
    rep: RunReport,
    _finish: Callable[[int, Dict[str, object], float], None],
    _fail: Callable[[int, CellState, BaseException, str, bool], None],
    _note_retry: Callable[[int, CellState, BaseException], None],
) -> None:
    """The self-healing process-pool path.

    Submission is bounded at ``max_workers`` outstanding futures — this
    keeps each worker fed (the loop refills on every completion) while
    keeping worker-loss *blame* tight: when the pool breaks, every
    in-flight cell is charged one kill, and with bounded submission
    "in-flight" means "actually running", not "queued behind 500 others".
    """
    # submit cells grouped by workload identity: tasks go out in order,
    # so each worker sees long runs of the same workload and its
    # per-process memo regenerates far fewer traces (policy grids share
    # one workload across many cells)
    order = sorted(todo, key=lambda i: (repr(cells[i].workload),
                                        cells[i].seed, i))
    unsubmitted: "deque[int]" = deque(order)
    pending_retry: List[Tuple[float, int]] = []  # (ready time, cell index)
    states: Dict[int, CellState] = {}
    futures: Dict[object, int] = {}
    deadlines: Dict[object, float] = {}
    pool = ProcessPoolExecutor(max_workers=max_workers)

    def _state(i: int) -> CellState:
        st = states.get(i)
        if st is None:
            st = states[i] = CellState()
        return st

    def _submit(i: int) -> bool:
        st = _state(i)
        # the fault-layer occurrence number counts charged kills too:
        # worker-loss resubmission does not consume a retry attempt, but a
        # `times: 1` kill rule must not re-fire on the resubmitted cell
        try:
            fut = pool.submit(_run_cell_timed, cells[i], keys[i],
                              st.attempts + st.worker_kills, False)
        except BrokenProcessPool:
            # the pool broke while idle (e.g. an OOM-killed worker between
            # tasks); push the cell back and let the caller rebuild
            unsubmitted.appendleft(i)
            return False
        futures[fut] = i
        if policy.timeout is not None:
            deadlines[fut] = time.monotonic() + policy.timeout
        return True

    def _on_failure(i: int, exc: BaseException) -> None:
        state = _state(i)
        action = state.classify(exc, policy)
        if action == "retry":
            _note_retry(i, state, exc)
            pending_retry.append(
                (time.monotonic() + policy.backoff(state.attempts), i))
        else:
            kind = "timeout" if isinstance(exc, CellTimeout) else "error"
            _fail(i, state, exc, kind, action == "quarantine")

    def _rebuild(charge_kills: bool, spare: Set[int]) -> None:
        """Tear the pool down, salvage finished futures, requeue the rest.

        ``charge_kills`` charges every unfinished in-flight cell one
        worker kill (the worker-loss blame model); cells in ``spare``
        are never charged (e.g. bystanders of a watchdog teardown, which
        was our own kill, not theirs).
        """
        nonlocal pool
        rep.pool_rebuilds += 1
        _counter_hit("campaign.pool_rebuild")
        victims: List[int] = []
        salvaged: List[Tuple[int, Dict[str, object], float]] = []
        for fut in list(futures):
            i = futures.pop(fut)
            deadlines.pop(fut, None)
            if fut.done():
                try:
                    metrics, dt = fut.result()
                except Exception:
                    victims.append(i)
                else:
                    salvaged.append((i, metrics, dt))
            else:
                fut.cancel()
                victims.append(i)
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
            state = _state(i)
            if charge_kills and i not in spare:
                state.worker_kills += 1
                if state.worker_kills > policy.max_worker_kills:
                    exc = WorkerLost(
                        f"cell killed its worker {state.worker_kills} times"
                    )
                    # worker-loss failures never consumed attempts, so the
                    # failure record carries the kill count instead
                    state.attempts = max(state.attempts, state.worker_kills)
                    _fail(i, state, exc, "worker-loss", True)
                    continue
            unsubmitted.appendleft(i)
        # salvage last: _finish may raise an injected driver abort, and
        # by now every victim is safely requeued (nothing is lost even
        # if this propagates)
        for i, metrics, dt in salvaged:
            _finish(i, metrics, dt)

    try:
        while unsubmitted or pending_retry or futures:
            now = time.monotonic()
            if pending_retry:
                ready = [i for t, i in pending_retry if t <= now]
                if ready:
                    pending_retry = [(t, i) for t, i in pending_retry
                                     if t > now]
                    unsubmitted.extendleft(reversed(ready))
            while unsubmitted and len(futures) < max_workers:
                if not _submit(unsubmitted.popleft()):
                    _rebuild(charge_kills=True, spare=set())
            if not futures:
                if pending_retry:
                    time.sleep(max(0.0, min(t for t, _ in pending_retry)
                                   - time.monotonic()))
                continue

            timeout = None
            if deadlines:
                timeout = max(0.0, min(deadlines.values()) - now)
            if pending_retry:
                t_retry = max(0.0, min(t for t, _ in pending_retry) - now)
                timeout = t_retry if timeout is None else min(timeout, t_retry)

            finished, _ = wait(set(futures), timeout=timeout,
                               return_when=FIRST_COMPLETED)

            broken = False
            for fut in finished:
                i = futures.pop(fut, None)
                if i is None:
                    continue
                deadlines.pop(fut, None)
                try:
                    metrics, dt = fut.result()
                except BrokenProcessPool:
                    # this cell was in flight when a worker died; requeue
                    # via the rebuild so every in-flight cell is blamed
                    # exactly once
                    futures[fut] = i
                    broken = True
                    break
                except Exception as exc:
                    _on_failure(i, exc)
                else:
                    _finish(i, metrics, dt)
            if broken:
                _rebuild(charge_kills=True, spare=set())
                continue

            if policy.timeout is not None:
                now = time.monotonic()
                expired = [fut for fut, dl in deadlines.items()
                           if dl <= now and not fut.done()]
                if expired:
                    spare: Set[int] = set()
                    for fut in expired:
                        i = futures.pop(fut)
                        deadlines.pop(fut, None)
                        fut.cancel()
                        rep.timeouts += 1
                        _counter_hit("campaign.timeout")
                        spare.add(i)
                        _on_failure(i, CellTimeout(
                            f"cell exceeded the {policy.timeout:g}s "
                            f"wall-clock budget"
                        ))
                    # the hung workers must die: terminate the pool's
                    # processes, then rebuild; surviving in-flight cells
                    # are requeued without blame (our kill, not theirs)
                    procs = getattr(pool, "_processes", None) or {}
                    for p in list(procs.values()):
                        try:
                            p.terminate()
                        except Exception:
                            pass
                    _rebuild(charge_kills=False, spare=spare)
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
    auto-named crash-safe journal under ``journal_dir`` (default: the
    cache root's ``journals/``; no journal without either), so the same
    spec always maps to the same resume point.
    """
    if journal_dir is None:
        journal_dir = default_journal_dir(cache)
    rep = report if report is not None else RunReport()
    results = run_cells(
        spec.expand(), jobs=jobs, cache=cache, force=force,
        progress=progress, retry=retry,
        journal=(journal_dir, spec.name) if journal_dir is not None else None,
        resume=resume, keep_going=keep_going, report=rep,
    )
    return CampaignResult(spec=spec, results=results, stats=rep)


def default_journal_dir(cache: Optional[CampaignCache]) -> Optional[Path]:
    """Where auto-named run journals live for a given cache (its root's
    ``journals/`` subdirectory), or ``None`` without a cache."""
    if cache is None:
        return None
    return cache.root / JOURNAL_DIR_NAME
