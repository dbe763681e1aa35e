"""Hot-path counters: a registry of named integer counters, off by default.

The simulator's fast paths (trusted profile mutations, the skip-when-clean
compression pass, the cached fairshare priority order, the incremental
FreeTimeline) were landed on the promise that they fire on the hot path —
this module is how that promise becomes observable.  Instrumented sites
follow one pattern::

    from ..obs import counters as _counters
    ...
    c = _counters.ACTIVE
    if c is not None:
        c.hit("profile.reserve_fitted")

``ACTIVE`` is a module-level global that is ``None`` unless a collection
is in progress, so the disabled cost per site is one module-attribute
load and an identity test — no method call, no allocation.  The digest
regression suite runs with counters both off and on; counting must never
change simulation results (counters are write-only from the simulator's
point of view).

Collection is process-local and not re-entrant by design: ``collect()``
installs a fresh :class:`Counters` as ``ACTIVE`` and restores the
previous value on exit, so nested scopes each see their own registry.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

#: the live registry instrumented sites write into; ``None`` = disabled.
ACTIVE: Optional["Counters"] = None


class Counters:
    """A plain name -> integer-count registry.

    Names are dotted paths (``subsystem.event``); the canonical set is
    :data:`CATALOG`, which docs and tests are checked against.  Unknown
    names are accepted (extensions may add their own) but the catalog is
    the contract.
    """

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def hit(self, name: str, n: int = 1) -> None:
        """Increment ``name`` by ``n`` (the single hot-path entry point)."""
        counts = self._counts
        counts[name] = counts.get(name, 0) + n

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        """Counts in sorted-name order (JSON-safe, deterministic)."""
        return {k: self._counts[k] for k in sorted(self._counts)}

    def merge(self, other: "Counters") -> None:
        for name, n in other._counts.items():
            self.hit(name, n)

    def clear(self) -> None:
        self._counts.clear()

    def __len__(self) -> int:
        return len(self._counts)

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __repr__(self) -> str:
        head = ", ".join(f"{k}={v}" for k, v in list(self.as_dict().items())[:4])
        more = "..." if len(self._counts) > 4 else ""
        return f"Counters({head}{more})"


@contextmanager
def collect(counters: Optional[Counters] = None) -> Iterator[Counters]:
    """Scope-bound collection; restores the previous registry on exit."""
    global ACTIVE
    prev = ACTIVE
    ACTIVE = counters if counters is not None else Counters()
    try:
        yield ACTIVE
    finally:
        ACTIVE = prev


def render(counters: Counters, indent: str = "  ") -> str:
    """Human-readable counter block, one ``name : count`` line each."""
    counts = counters.as_dict()
    if not counts:
        return f"{indent}(no counters recorded)"
    width = max(len(k) for k in counts)
    return "\n".join(f"{indent}{k:<{width}} : {v:>12,}" for k, v in counts.items())


#: the canonical counter catalog: ``(name, what one increment means)``.
#: docs/OBSERVABILITY.md must document every name here, and some other
#: module under src/repro/ must hit it (both enforced by
#: ``tools/check_docs.py``), so the catalog cannot silently drift.
CATALOG: Tuple[Tuple[str, str], ...] = (
    ("engine.events", "one simulation event dispatched by the engine"),
    ("engine.schedule_pass", "one scheduler pass (arrival/completion/timer)"),
    ("engine.wcl_kill", "one job killed by the IF_NEEDED wall-clock rule"),
    ("engine.chunk_resubmit", "one chunk-chain successor submitted"),
    ("profile.earliest_fit", "one earliest-fit query against a profile"),
    ("profile.reserve_fitted", "one reserve of a fitted rectangle"),
    ("profile.release_reserved", "one release of a reserved rectangle"),
    ("listsched.place", "one job placed on a FreeTimeline"),
    ("cons.rebuild", "one conservative full-profile rebuild"),
    ("cons.compress", "one compression (improvement) pass executed"),
    ("cons.compress_skipped", "one compression pass skipped as provably clean"),
    ("cons.compress_kept", "one job kept by compression without touching the profile"),
    ("cons.heap_push", "one reservation-start heap push"),
    ("cons.heap_compact", "one reservation-start heap compaction"),
    ("depthk.pass_cut", "one queued job a depth-k pass left unplaced"),
    ("sched.start", "one job started by any scheduler"),
    ("sched.backfill_start", "one start that leapt past the priority head"),
    ("sched.order_cache_hit", "one priority-order request served from cache"),
    ("sched.order_sort", "one full priority-order re-sort"),
    ("sched.pass_skipped", "one CPlant pass skipped as provably idle"),
    ("fairshare.settle", "one usage settlement that advanced accounts"),
    ("fairshare.decay", "one daily decay tick applied"),
    ("fsp.settle", "one fluid-drain step of the FSP virtual machine"),
    ("fsp.virtual_complete", "one job finishing in the FSP virtual machine"),
    ("rr.rotate", "one round-robin rotation scan over user lanes"),
    ("campaign.retry", "one campaign cell retried after a failure"),
    ("campaign.pool_rebuild", "one worker pool rebuilt after loss/timeout"),
    ("campaign.timeout", "one cell killed by the wall-clock watchdog"),
    ("campaign.quarantined", "one cell quarantined (deterministic failure)"),
    ("campaign.cell_shared", "one cell's record derived from a sibling's simulation"),
)

#: just the names, for membership checks.
CATALOG_NAMES: Tuple[str, ...] = tuple(name for name, _ in CATALOG)
