"""Deterministic fault injection for the campaign runtime.

Every recovery path in the executor (retry, pool rebuild, timeout,
corrupt-cache repair, resume) must be exercisable in CI without flaky
sleeps or real OOM kills.  A :class:`FaultPlan` is a seeded, declarative
list of rules that fire at *named sites* in the runtime:

=============  ======================================================
site           where it is checked
=============  ======================================================
``cell.run``   in the worker, before a cell simulates (token: cell key,
               occurrence: the parent-tracked attempt number)
``cache.put``  in :meth:`CampaignCache.put` (token: cell key)
``driver.tick``in the parent loop after each cell completes
               (token: the completion count, as a string)
=============  ======================================================

Rules select tokens either explicitly (``tokens``: prefix match) or by a
seeded hash of ``(seed, site, kind, token)`` against ``rate`` — both are
pure functions, so a plan fires on exactly the same cells in every run.
``times`` bounds how many occurrences fire per token (default 1): a
transient rule with ``times: 1`` fails a cell's first attempt and lets
the retry succeed.

Fault kinds:

* ``transient`` — raise :class:`InjectedTransientError` (retried)
* ``error`` — raise :class:`InjectedError` (deterministic: identical
  on every attempt, so the quarantine rule catches it)
* ``worker_kill`` — ``os._exit`` the worker process (the parent sees
  ``BrokenProcessPool``); inline execution degrades it to a transient
  raise so ``--jobs 1`` chaos runs don't kill the driver
* ``delay`` — sleep ``seconds`` in the worker (drives the watchdog)
* ``corrupt`` — cooperative: ``cache.put`` writes a truncated entry
* ``crash`` — cooperative: ``cache.put`` dies mid-write, leaving a
  ``*.tmp`` orphan and the old entry intact
* ``abort`` — raise :class:`InjectedAbortError` in the driver
  (simulates the sweep process being interrupted)

Plans install in-process (:func:`install`) or through the
``REPRO_FAULT_PLAN`` environment variable (a path to a plan JSON file,
or inline JSON), which worker processes inherit.  With no plan active
the per-site cost is one function call returning ``None``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

from .retry import TransientError

__all__ = [
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultPlan",
    "FaultRule",
    "InjectedAbortError",
    "InjectedCrashError",
    "InjectedError",
    "InjectedTransientError",
    "PLAN_ENV",
    "active_plan",
    "clear",
    "install",
]

#: environment variable naming a plan JSON file (or holding inline JSON)
PLAN_ENV = "REPRO_FAULT_PLAN"

FAULT_SITES = ("cell.run", "cache.put", "driver.tick")
FAULT_KINDS = (
    "transient", "error", "worker_kill", "delay", "corrupt", "crash", "abort",
)


class InjectedTransientError(TransientError):
    """A chaos-injected transient failure (retried by the executor)."""


class InjectedError(Exception):
    """A chaos-injected deterministic failure (quarantined on repeat)."""


class InjectedCrashError(Exception):
    """A chaos-injected crash mid-operation (no cleanup runs)."""


class InjectedAbortError(Exception):
    """A chaos-injected driver interrupt (the sweep process 'dies')."""


def _hash01(seed: int, site: str, kind: str, token: str) -> float:
    """Deterministic uniform draw in [0, 1) for one (rule, token)."""
    blob = f"{seed}\x00{site}\x00{kind}\x00{token}".encode()
    digest = hashlib.sha256(blob).hexdigest()
    return int(digest[:12], 16) / float(16 ** 12)


@dataclass(frozen=True)
class FaultRule:
    """One deterministic rule: fire ``kind`` at ``site`` for selected
    tokens, on their first ``times`` occurrences."""

    site: str
    kind: str
    rate: float = 0.0
    tokens: Tuple[str, ...] = ()
    times: int = 1
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; known: {FAULT_SITES}"
            )
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if not (0.0 <= self.rate <= 1.0):
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.times < 1:
            raise ValueError("times must be >= 1")
        object.__setattr__(self, "tokens", tuple(str(t) for t in self.tokens))

    def selects(self, seed: int, token: str) -> bool:
        if self.tokens:
            return any(token.startswith(t) for t in self.tokens)
        return self.rate > 0.0 and _hash01(seed, self.site, self.kind,
                                           token) < self.rate


@dataclass(frozen=True)
class Fault:
    """One fired rule, ready to act.  ``corrupt``/``crash`` are
    cooperative — the call site inspects ``kind`` instead of calling
    :meth:`fire`."""

    site: str
    kind: str
    token: str
    seconds: float = 0.0

    def fire(self, inline: bool = False) -> None:
        tag = f"injected {self.kind} at {self.site} [{self.token[:12]}]"
        if self.kind == "transient":
            raise InjectedTransientError(tag)
        if self.kind == "error":
            raise InjectedError(tag)
        if self.kind == "abort":
            raise InjectedAbortError(tag)
        if self.kind == "worker_kill":
            if inline:
                # killing the only process would kill the driver; degrade
                # to a transient raise so inline chaos runs stay survivable
                raise InjectedTransientError(tag + " (inline, degraded)")
            os._exit(86)
        if self.kind == "delay":
            time.sleep(self.seconds)
            return
        # corrupt/crash: cooperative kinds are no-ops here by design —
        # the owning site (cache.put) implements the damage itself
        return


@dataclass
class FaultPlan:
    """A seeded set of :class:`FaultRule` plus per-token occurrence
    counters (used when the caller cannot supply an attempt number)."""

    seed: int = 0
    rules: Tuple[FaultRule, ...] = ()
    _counts: Dict[Tuple[str, str], int] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.rules = tuple(self.rules)

    def check(self, site: str, token: str,
              attempt: Optional[int] = None) -> Optional[Fault]:
        """The fault to apply at (site, token) for this occurrence, if any.

        ``attempt`` is the occurrence index; when ``None`` the plan
        counts occurrences itself (process-local).  Pure given
        (site, token, attempt): the executor passes its parent-tracked
        attempt number so worker death cannot reset the count.
        """
        token = str(token)
        if attempt is None:
            attempt = self._counts.get((site, token), 0)
            self._counts[(site, token)] = attempt + 1
        for rule in self.rules:
            if rule.site != site or attempt >= rule.times:
                continue
            if rule.selects(self.seed, token):
                return Fault(site=site, kind=rule.kind, token=token,
                             seconds=rule.seconds)
        return None

    @classmethod
    def from_dict(cls, d: Mapping[str, object]) -> "FaultPlan":
        d = dict(d)
        rules_raw = d.pop("faults", d.pop("rules", ()))
        seed = int(d.pop("seed", 0))
        unknown = sorted(d)
        if unknown:
            raise ValueError(
                f"unknown fault plan keys {unknown}; known: seed, faults"
            )
        rules = tuple(
            FaultRule(
                site=str(r["site"]),
                kind=str(r["kind"]),
                rate=float(r.get("rate", 0.0)),
                tokens=tuple(r.get("tokens", ())),
                times=int(r.get("times", 1)),
                seconds=float(r.get("seconds", 0.0)),
            )
            for r in rules_raw  # type: ignore[union-attr]
        )
        return cls(seed=seed, rules=rules)

    @classmethod
    def from_json(cls, path) -> "FaultPlan":
        return cls.from_dict(json.loads(Path(path).read_text()))


# -- activation ---------------------------------------------------------------

_ACTIVE: Optional[FaultPlan] = None
#: (env value, parsed plan) memo so workers don't re-read the file per cell
_ENV_CACHE: Optional[Tuple[str, FaultPlan]] = None


def install(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install ``plan`` process-wide (forked pool workers inherit it)."""
    global _ACTIVE
    _ACTIVE = plan
    return plan


def clear() -> None:
    """Remove any installed plan and forget the env memo."""
    global _ACTIVE, _ENV_CACHE
    _ACTIVE = None
    _ENV_CACHE = None


def active_plan() -> Optional[FaultPlan]:
    """The plan in force: the installed one, else ``REPRO_FAULT_PLAN``.

    The env variable names a JSON file (or carries inline JSON starting
    with ``{``), which lets chaos CI drive an unmodified ``repro sweep``
    and lets spawned (non-forked) workers find the plan.
    """
    global _ENV_CACHE
    if _ACTIVE is not None:
        return _ACTIVE
    spec = os.environ.get(PLAN_ENV)
    if not spec:
        return None
    if _ENV_CACHE is not None and _ENV_CACHE[0] == spec:
        return _ENV_CACHE[1]
    if spec.lstrip().startswith("{"):
        plan = FaultPlan.from_dict(json.loads(spec))
    else:
        plan = FaultPlan.from_json(spec)
    _ENV_CACHE = (spec, plan)
    return plan


def corrupt_blob(blob: str) -> str:
    """The canonical damage ``cache.put`` applies for a ``corrupt`` fault:
    a truncated record, as an interrupted non-atomic writer would leave."""
    return blob[: max(1, len(blob) // 2)]
