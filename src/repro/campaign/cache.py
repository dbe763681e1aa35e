"""Content-addressed on-disk cache for campaign cells (and other
records keyed the same way, e.g. the paper build's workload artifacts).

A cell's key is the SHA-256 of its canonical JSON identity — workload
identity (generator parameters + seed, or trace-file content hash),
policy key, scheduler overrides, engine options — salted with a code
version, so re-running a campaign after editing a spec only simulates
the cells that actually changed, and upgrading the package invalidates
stale metrics wholesale.

Entries are small JSON documents (the flattened metric record, not the
job lists), stored two-level fanned-out under the cache root and written
atomically (``os.replace``) so concurrent workers and concurrent
campaigns can share one cache directory safely.  Each entry carries an
integrity digest of its metrics block; :meth:`CampaignCache.get`
verifies it on every hit, and :meth:`CampaignCache.verify` /
:meth:`CampaignCache.prune` (CLI: ``repro cache verify|prune``) audit
the whole store.  Writers that died between ``mkstemp`` and
``os.replace`` leave ``*.tmp`` orphans; the cache sweeps stale ones on
open.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from ..obs.log import get_logger
from . import faults
from .spec import CampaignCell

PathLike = Union[str, Path]

log = get_logger("repro.campaign.cache")

#: bump to invalidate every cached cell after a metrics-affecting change
#: (2: metric records gained the Figure 3 "weekly" series;
#:  3: entries carry an integrity digest of the metrics block)
CACHE_SCHEMA = 3

#: environment override for the default cache root
CACHE_DIR_ENV = "REPRO_CAMPAIGN_CACHE"

#: tmp orphans younger than this are presumed owned by a live writer
DEFAULT_TMP_GRACE = 3600.0


def code_version() -> str:
    """Package version + cache schema: the cache key's code component."""
    from .. import __version__  # deferred: package init imports this module

    return f"{__version__}+schema{CACHE_SCHEMA}"


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro-campaign"


def canonical_digest(doc: Mapping[str, object]) -> str:
    """SHA-256 of a JSON-safe mapping's canonical JSON."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def cell_key(cell: CampaignCell) -> str:
    """Stable content hash of everything that determines a cell's result."""
    return canonical_digest({"cell": cell.identity(), "code": code_version()})


def metrics_digest(metrics: Dict[str, object]) -> str:
    """Integrity digest of a metrics block (canonical-JSON SHA-256)."""
    return canonical_digest(metrics)


@dataclass
class CacheStats:
    """Lookup accounting for one :class:`CampaignCache` instance.

    ``corrupt`` counts entries that *existed* but could not be used —
    truncated/non-JSON files, key mismatches, malformed metric blocks,
    integrity-digest mismatches — as opposed to plain misses (absent, or
    invalidated by a schema bump).  Corrupt entries still read as misses
    to callers; the stats exist so a sweep can warn about them instead of
    silently re-simulating forever.
    """

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    corrupt_keys: List[str] = field(default_factory=list)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.corrupt

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.corrupt,
                          list(self.corrupt_keys))

    def since(self, base: "CacheStats") -> "CacheStats":
        """Delta relative to an earlier :meth:`snapshot` (caches are
        long-lived; per-run stats need a window, not lifetime totals)."""
        return CacheStats(
            self.hits - base.hits,
            self.misses - base.misses,
            self.corrupt - base.corrupt,
            self.corrupt_keys[len(base.corrupt_keys):],
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "corrupt_keys": list(self.corrupt_keys),
        }


@dataclass
class CacheAudit:
    """Result of a full-store :meth:`CampaignCache.verify` walk."""

    n_entries: int = 0
    n_ok: int = 0
    #: (key, why) for every unusable entry
    corrupt: List[Tuple[str, str]] = field(default_factory=list)
    #: entries from another cache schema (valid, just not ours)
    n_other_schema: int = 0
    #: stale ``*.tmp`` orphans found (not removed by verify)
    n_tmp: int = 0

    @property
    def n_corrupt(self) -> int:
        return len(self.corrupt)

    @property
    def ok(self) -> bool:
        return not self.corrupt

    def as_dict(self) -> Dict[str, object]:
        return {
            "n_entries": self.n_entries,
            "n_ok": self.n_ok,
            "n_corrupt": self.n_corrupt,
            "n_other_schema": self.n_other_schema,
            "n_tmp": self.n_tmp,
            "corrupt": [{"key": k, "why": w} for k, w in self.corrupt],
        }


def _check_entry(key: str, text: str) -> Optional[str]:
    """Why a stored entry is unusable, or ``None`` if it is sound.

    Schema-mismatched entries return ``"other-schema"`` — structurally
    fine, just written by a different code version.
    """
    try:
        doc = json.loads(text)
    except ValueError:
        return "not JSON"
    if not isinstance(doc, dict) or doc.get("key") != key:
        return "key mismatch"
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        return "malformed metrics block"
    if doc.get("schema") != CACHE_SCHEMA:
        return "other-schema"
    want = doc.get("integrity")
    if want is not None and want != metrics_digest(metrics):
        return "integrity digest mismatch"
    return None


class CampaignCache:
    """Get/put of metric records keyed by :func:`cell_key`.

    Misses are silent (corrupt or truncated entries read as misses and are
    overwritten on the next put); hits return the stored metrics dict.
    ``stats`` tallies hit/miss/corrupt outcomes per instance.

    Opening the cache sweeps ``*.tmp`` orphans older than
    ``tmp_grace`` seconds — debris of writers that died between
    ``mkstemp`` and the atomic rename.  The grace window keeps a
    concurrent campaign's in-flight writes (lifetime: milliseconds) safe.
    """

    def __init__(self, root: Optional[PathLike] = None,
                 tmp_grace: float = DEFAULT_TMP_GRACE) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.stats = CacheStats()
        swept = self.sweep_tmp(grace=tmp_grace)
        if swept:
            log.info("swept %d stale cache tmp file(s) under %s",
                     swept, self.root)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _corrupt(self, key: str, why: str) -> None:
        self.stats.corrupt += 1
        self.stats.corrupt_keys.append(key)
        log.debug("corrupt cache entry %s (%s): treating as miss", key, why)

    def get(self, key: str) -> Optional[Dict[str, object]]:
        path = self.path_for(key)
        try:
            text = path.read_text()
        except OSError:
            self.stats.misses += 1  # absent: the ordinary cold-cache case
            return None
        why = _check_entry(key, text)
        if why == "other-schema":
            self.stats.misses += 1  # deliberate invalidation, not damage
            return None
        if why is not None:
            self._corrupt(key, why)
            return None
        self.stats.hits += 1
        return json.loads(text)["metrics"]

    def put(self, key: str, identity: Mapping[str, object],
            metrics: Dict[str, object]) -> Path:
        """Store ``metrics`` under ``key``; ``identity`` is what the key
        hashes (a cell's :meth:`~.spec.CampaignCell.identity`), kept in
        the entry for inspection."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "key": key,
            "schema": CACHE_SCHEMA,
            "code": code_version(),
            "cell": dict(identity),
            "integrity": metrics_digest(metrics),
            "metrics": metrics,
        }
        blob = json.dumps(doc, sort_keys=True) + "\n"

        fault = None
        plan = faults.active_plan()
        if plan is not None:
            fault = plan.check("cache.put", key)
        if fault is not None and fault.kind == "corrupt":
            # cooperative damage: land a truncated record where the entry
            # should be, as an interrupted non-atomic writer would
            blob = faults.corrupt_blob(blob)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        if fault is not None and fault.kind == "crash":
            # simulate the writer dying mid-write: half a record in the
            # tmp file, no rename, no cleanup — exactly the orphan the
            # open-time sweep exists for
            with os.fdopen(fd, "w") as fh:
                fh.write(faults.corrupt_blob(blob))
            raise faults.InjectedCrashError(
                f"injected crash in cache.put [{key[:12]}]"
            )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        if fault is not None and fault.kind not in ("corrupt", "crash"):
            fault.fire()
        return path

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        n = 0
        for path in list(self.root.glob("??/*.json")):
            try:
                path.unlink()
                n += 1
            except OSError:
                pass
        return n

    # -- maintenance -----------------------------------------------------------

    def sweep_tmp(self, grace: float = 0.0) -> int:
        """Remove ``*.tmp`` orphans older than ``grace`` seconds.

        Returns how many were removed.  Runs automatically on open; call
        with ``grace=0`` (``repro cache prune``) to reap everything.
        """
        if not self.root.is_dir():
            return 0
        now = time.time()
        n = 0
        for tmp in list(self.root.glob("??/*.tmp")):
            try:
                if grace > 0 and now - tmp.stat().st_mtime < grace:
                    continue
                tmp.unlink()
                n += 1
            except OSError:
                continue  # raced with its owner or another sweeper
        return n

    def _entries(self) -> List[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("??/*.json"))

    def verify(self) -> CacheAudit:
        """Checksum-verify every stored entry (read-only)."""
        audit = CacheAudit()
        for path in self._entries():
            audit.n_entries += 1
            key = path.stem
            try:
                text = path.read_text()
            except OSError as exc:
                audit.corrupt.append((key, f"unreadable: {exc}"))
                continue
            why = _check_entry(key, text)
            if why is None:
                audit.n_ok += 1
            elif why == "other-schema":
                audit.n_other_schema += 1
            else:
                audit.corrupt.append((key, why))
        if self.root.is_dir():
            audit.n_tmp = sum(1 for _ in self.root.glob("??/*.tmp"))
        return audit

    def prune(self, quarantine: bool = False) -> CacheAudit:
        """Remove (or quarantine) corrupt entries and reap tmp orphans.

        With ``quarantine`` corrupt entries move to
        ``<root>/quarantine/`` for post-mortem instead of being deleted.
        Entries from other cache schemas are left alone — another code
        version owns them.  Returns the pre-removal audit.
        """
        audit = self.verify()
        qdir = self.root / "quarantine"
        for key, why in audit.corrupt:
            path = self.path_for(key)
            try:
                if quarantine:
                    qdir.mkdir(parents=True, exist_ok=True)
                    os.replace(path, qdir / path.name)
                else:
                    path.unlink()
                log.info("pruned corrupt cache entry %s (%s)", key, why)
            except OSError:
                continue
        audit.n_tmp = self.sweep_tmp(grace=0.0)
        return audit
