"""Retry policy and failure classification for the campaign runtime.

A campaign cell is a pure function of its spec, so a failure is either
*transient* (the environment hiccuped: a worker was OOM-killed, a pipe
closed, an injected chaos fault fired) or *deterministic* (the simulation
itself raises, and will raise identically on every attempt).  The
executor cannot know which a priori; this module encodes the operational
rule it uses instead:

* transient-typed errors (:class:`TransientError`, ``OSError`` and
  friends) are retried with capped exponential backoff up to
  ``max_attempts``;
* any cell that fails twice with an *identical* signature (same
  exception type and message) is **quarantined** — retrying a pure
  deterministic failure forever only burns the pool;
* a cell whose execution repeatedly coincides with worker death is
  quarantined after ``MAX_WORKER_KILLS`` charged kills (worker-loss
  blame is conservative — every in-flight cell at a pool break is
  charged — so the threshold must exceed the number of breaks an
  innocent bystander can witness).

Backoff is deterministic (no jitter): campaign results must be
byte-identical across runs, and the backoff schedule is observational
only, but determinism keeps chaos tests exactly reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..obs.stats import timing_summary

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .cache import CacheStats

__all__ = [
    "MAX_WORKER_KILLS",
    "CellFailure",
    "CellTimeout",
    "RetryPolicy",
    "RunReport",
    "TransientError",
    "WorkerLost",
    "failure_signature",
    "is_transient",
]


class TransientError(Exception):
    """Marker base: failures of this type are presumed retry-worthy."""


class WorkerLost(TransientError):
    """A worker process died while (possibly) executing this cell."""


class CellTimeout(Exception):
    """The per-cell wall-clock watchdog fired.

    Deliberately *not* transient: a pathological cell usually hangs the
    same way every time, so the identical-signature rule quarantines it
    on the second timeout instead of burning ``timeout`` seconds per
    attempt forever.
    """


#: worker-loss charges a cell may take before it is quarantined; it must
#: exceed the pool breaks an innocent in-flight bystander can witness
MAX_WORKER_KILLS = 2

#: exception types treated as transient even without the marker base
_TRANSIENT_TYPES = (TransientError, OSError, ConnectionError)


def is_transient(exc: BaseException) -> bool:
    """Whether ``exc`` looks environmental rather than deterministic."""
    return isinstance(exc, _TRANSIENT_TYPES)


def failure_signature(exc: BaseException) -> str:
    """The identity used by the fails-identically-twice quarantine rule."""
    return f"{type(exc).__name__}: {exc}"


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the fault-tolerant executor.

    ``max_attempts`` counts *total* tries per cell (1 = never retry).
    ``timeout`` is the per-cell wall-clock budget enforced by the pool
    watchdog; ``None`` disables it, and the inline (``--jobs 1``) path
    cannot preempt a running simulation so it ignores timeouts entirely.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        # NaN passes a ``<= 0`` test and would make the watchdog wait 0 s
        # and never fire; an infinite budget is spelled None
        if self.timeout is not None and not 0 < self.timeout < math.inf:
            raise ValueError(
                f"timeout must be positive and finite (or None to disable), "
                f"got {self.timeout!r}"
            )

    def backoff(self, attempt: int) -> float:
        """Deterministic capped exponential delay before retry ``attempt``
        (1-based: the delay taken after the ``attempt``-th failure)."""
        if attempt < 1 or self.backoff_base <= 0:
            return 0.0
        return min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))


@dataclass
class CellFailure:
    """One cell the run could not complete, with why and how hard it tried.

    ``kind`` is ``"error"`` (the cell raised), ``"timeout"`` (the
    watchdog fired), or ``"worker-loss"`` (the cell was quarantined for
    repeatedly killing its worker).  ``exc`` keeps the last exception
    object for ``raise ... from`` chaining; ``error`` is its rendered
    signature (JSON-safe, journaled).
    """

    cell: object
    key: str
    kind: str
    error: str
    attempts: int
    quarantined: bool
    exc: Optional[BaseException] = None


@dataclass
class RunReport:
    """The record of one ``run_cells`` execution: where the cells came
    from, how long simulation took (per-cell percentiles over in-worker
    time), how busy the workers were, the cache lookups of this run, and
    what the recovery machinery had to do.

    ``run_cells`` fills it in place (pass one in to keep it across an
    aborted run), so a driver that dies mid-campaign still leaves its
    counts observable.  Rendered by ``--stats`` and written to the paper
    build's ``build-stats.json``; the numbers are observational and never
    feed back into metrics or cache keys.
    """

    failures: List[CellFailure] = field(default_factory=list)
    retries: int = 0
    pool_rebuilds: int = 0
    timeouts: int = 0
    quarantined: int = 0
    journal_cells: int = 0
    n_cells: int = 0
    n_cached: int = 0
    n_simulated: int = 0
    #: simulated cells whose record came from a sibling's simulation (a
    #: cell differing only in reference orders); counted in n_simulated
    n_shared: int = 0
    #: the simulated cell that took longest: its label and reference
    #: orders (None when nothing ran)
    slowest: Optional[str] = None
    wall: float = 0.0
    #: worker processes that simulated (1 inline, 0 when nothing ran)
    workers: int = 0
    #: p50/p95/max/total over per-cell in-worker simulation seconds
    cell_seconds: Dict[str, float] = field(
        default_factory=lambda: timing_summary([]))
    #: fraction of worker capacity spent simulating (None when nothing ran)
    pool_utilization: Optional[float] = None
    #: this run's window of the cache's lookup stats (None without a cache)
    cache: Optional[CacheStats] = None

    @property
    def n_failed(self) -> int:
        return len(self.failures)

    @property
    def rate(self) -> float:
        """Cells per wall-clock second."""
        return self.n_cells / self.wall if self.wall > 0 else 0.0

    def as_dict(self) -> Dict[str, object]:
        """The ``build-stats.json`` document."""
        return {
            "n_cells": self.n_cells,
            "n_cached": self.n_cached,
            "n_simulated": self.n_simulated,
            "n_shared": self.n_shared,
            "slowest_cell": self.slowest,
            "wall": round(self.wall, 4),
            "workers": self.workers,
            "cell_seconds": dict(self.cell_seconds),
            "pool_utilization": (
                round(self.pool_utilization, 4)
                if self.pool_utilization is not None else None
            ),
            "cache": self.cache.as_dict() if self.cache is not None else None,
            "recovery": {
                "retries": self.retries,
                "pool_rebuilds": self.pool_rebuilds,
                "timeouts": self.timeouts,
                "quarantined": self.quarantined,
                "n_failed": self.n_failed,
                "n_journal": self.journal_cells,
            },
        }

    def render(self) -> str:
        """Human-readable stats block (one fact per line, greppable)."""
        cs = self.cell_seconds
        lines = [
            f"cells   : {self.n_cells} in {self.wall:.2f}s "
            f"({self.rate:.1f} cells/s) — "
            f"{self.n_simulated} simulated, {self.n_cached} cached",
            f"cell time : p50 {cs['p50']:.3f}s, p95 {cs['p95']:.3f}s, "
            f"max {cs['max']:.3f}s (sim total {cs['total']:.2f}s)",
        ]
        if self.slowest is not None:
            lines.append(f"slowest : {self.slowest}, {cs['max']:.3f}s")
        if self.n_shared:
            lines.append(f"shared  : {self.n_shared} cells derived from a "
                         f"sibling's simulation")
        if self.pool_utilization is not None:
            lines.append(
                f"workers : {self.workers}, "
                f"utilization {100 * self.pool_utilization:.0f}%"
            )
        if self.cache is not None:
            s = self.cache
            lines.append(
                f"cache   : {s.hits} hits, {s.misses} misses, "
                f"{s.corrupt} corrupt"
            )
        lines.append(
            f"recovery: {self.retries} retries, "
            f"{self.pool_rebuilds} pool rebuilds, "
            f"{self.timeouts} timeouts, {self.quarantined} quarantined"
        )
        if self.journal_cells:
            lines.append(f"resume  : {self.journal_cells} cells replayed "
                         f"from the run journal")
        if self.n_failed:
            lines.append(f"failed  : {self.n_failed} cells missing "
                         f"from aggregates (see --keep-going report)")
        return "\n".join(lines)


class CellState:
    """Per-cell retry bookkeeping inside one ``run_cells`` execution."""

    __slots__ = ("attempts", "signatures", "worker_kills")

    def __init__(self) -> None:
        self.attempts = 0          # completed (failed) tries so far
        self.signatures: List[str] = []
        self.worker_kills = 0      # charged pool-break blames

    def classify(self, exc: BaseException, policy: RetryPolicy) -> str:
        """Record a failed attempt and decide what happens next.

        Returns ``"retry"``, ``"quarantine"`` (failed identically twice —
        deterministic), or ``"fail"`` (attempts exhausted).  Worker-loss
        failures do not come through here: they neither consume attempts
        nor leave signatures (see the executor's blame model).
        """
        self.attempts += 1
        sig = failure_signature(exc)
        repeated = sig in self.signatures
        self.signatures.append(sig)
        if repeated and not is_transient(exc):
            return "quarantine"
        if self.attempts >= policy.max_attempts:
            return "fail"
        return "retry"
