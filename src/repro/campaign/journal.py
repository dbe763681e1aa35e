"""Crash-safe run journal: append-only JSONL making campaigns resumable.

The content-addressed cache already makes re-runs cheap, but it is a
*cache*: entries can be evicted or corrupted, and it records nothing
about which run produced what.  The journal is the executor's
write-ahead completion log — one flushed JSON line per finished cell,
metrics embedded — so ``repro sweep --resume`` continues an interrupted
run *exactly*: completed cells replay from the journal (source
``"journal"``), everything else executes as usual.  Journals live under
the cache root, so a run without a cache (``--no-cache``) keeps none,
and asking it to resume is an error rather than a silent full re-run.

Records (schema 1):

* ``{"ev": "header", "schema": 1, "run": <run id>, "name": ...,
  "n_cells": N, "resumed": bool}`` — written on every (re)open;
* ``{"ev": "cell", "key": ..., "source": "run"|"cache",
  "metrics": {...}}`` — one completed cell (the resume unit);
* ``{"ev": "fail", "key": ..., "kind": ..., "error": ...,
  "attempts": N, "quarantined": bool}`` — informational: failed cells
  are re-attempted on resume;
* ``{"ev": "end", "completed": N, "failed": M}`` — a run that finished.

Crash safety is per line: every record is written and flushed atomically
from one ``write`` call, and the reader skips a torn trailing line (the
driver died mid-write), so a journal is never unreadable.  The run id is
the SHA-256 of the sorted cell-key set — the same grid always maps to
the same journal file under ``<cache root>/journals/``, which is how
``--resume`` finds the right log without extra bookkeeping.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..obs.log import get_logger

PathLike = Union[str, Path]

log = get_logger("repro.campaign.journal")

#: bump when the journal record layout changes
JOURNAL_SCHEMA = 1

#: subdirectory of the cache root holding auto-named journals
JOURNAL_DIR_NAME = "journals"


@dataclass
class JournalState:
    """A parsed journal: headers seen, completed cells, failure records."""

    headers: List[Dict[str, object]] = field(default_factory=list)
    cells: Dict[str, Dict[str, object]] = field(default_factory=dict)
    failures: Dict[str, Dict[str, object]] = field(default_factory=dict)
    ended: bool = False
    torn_lines: int = 0

    @property
    def run_id(self) -> Optional[str]:
        return str(self.headers[0]["run"]) if self.headers else None


class RunJournal:
    """Append-only JSONL journal for one campaign grid."""

    def __init__(self, path: PathLike, name: str = "campaign") -> None:
        self.path = Path(path)
        self.name = name
        self._fh = None

    # -- identity --------------------------------------------------------------

    @staticmethod
    def run_id(keys: Sequence[str]) -> str:
        """Identity of a grid: the hash of its sorted cell-key set."""
        blob = json.dumps(sorted(keys), separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    @classmethod
    def at(cls, journal_dir: PathLike, keys: Sequence[str],
           name: str = "campaign") -> "RunJournal":
        """The auto-named journal for a grid under ``journal_dir``."""
        rid = cls.run_id(keys)
        return cls(Path(journal_dir) / f"{rid[:16]}.jsonl", name=name)

    # -- writing ---------------------------------------------------------------

    def begin(self, keys: Sequence[str], resuming: bool = False) -> None:
        """Open for appending (resume) or truncate (fresh run) and write
        the header record."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        mode = "a" if (resuming and self.path.exists()) else "w"
        self._fh = open(self.path, mode)
        self._write({
            "ev": "header",
            "schema": JOURNAL_SCHEMA,
            "run": self.run_id(keys),
            "name": self.name,
            "n_cells": len(keys),
            "resumed": bool(resuming),
        })

    def record(self, key: str, metrics: Dict[str, object],
               source: str) -> None:
        """Journal one completed cell (the crash-safe resume unit)."""
        self._write({"ev": "cell", "key": key, "source": source,
                     "metrics": metrics})

    def record_failure(self, key: str, kind: str, error: str,
                       attempts: int, quarantined: bool) -> None:
        self._write({"ev": "fail", "key": key, "kind": kind, "error": error,
                     "attempts": attempts, "quarantined": quarantined})

    def end(self, completed: int, failed: int) -> None:
        self._write({"ev": "end", "completed": completed, "failed": failed})

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            finally:
                self._fh = None

    def _write(self, doc: Dict[str, object]) -> None:
        if self._fh is None:
            raise RuntimeError("journal not opened; call begin() first")
        # one write + flush per record: a crash between records loses
        # nothing, a crash inside one loses only the torn trailing line
        self._fh.write(json.dumps(doc, sort_keys=True,
                                  separators=(",", ":")) + "\n")
        self._fh.flush()

    # -- reading ---------------------------------------------------------------

    @staticmethod
    def read(path: PathLike) -> JournalState:
        """Parse a journal, tolerating a torn trailing line."""
        state = JournalState()
        try:
            text = Path(path).read_text()
        except OSError:
            return state
        lines = text.split("\n")
        for n, line in enumerate(lines):
            if not line:
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                # a torn line is expected only at the tail (the writer
                # died mid-record); anything else is still skipped, but
                # counted so callers can warn
                state.torn_lines += 1
                continue
            ev = doc.get("ev")
            if ev == "header":
                state.headers.append(doc)
            elif ev == "cell":
                key, metrics = doc.get("key"), doc.get("metrics")
                if isinstance(key, str) and isinstance(metrics, dict):
                    state.cells[key] = metrics
                    state.failures.pop(key, None)
                else:
                    state.torn_lines += 1
            elif ev == "fail":
                key = doc.get("key")
                if isinstance(key, str):
                    state.failures[key] = doc
            elif ev == "end":
                state.ended = True
        return state

    def completed_cells(self, keys: Sequence[str]) -> Dict[str, Dict[str, object]]:
        """Metrics for already-completed cells of *this* grid.

        Keys are content-addressed, so replaying a record can never serve
        stale data — but a journal written by a different grid is almost
        certainly operator error, so a run-id mismatch warns (and still
        reuses any exact-key matches it finds).
        """
        state = self.read(self.path)
        if not state.headers:
            return {}
        rid = self.run_id(keys)
        if state.run_id != rid:
            log.warning(
                "journal %s was written by a different grid "
                "(run %s != %s); reusing exact-key matches only",
                self.path, str(state.run_id)[:12], rid[:12],
            )
        if state.torn_lines:
            log.warning("journal %s: skipped %d torn line(s)",
                        self.path, state.torn_lines)
        wanted = set(keys)
        return {k: m for k, m in state.cells.items() if k in wanted}
