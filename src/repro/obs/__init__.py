"""Observability: hot-path counters, structured event tracing, logging.

Three tiers, all zero-overhead when disabled:

* :mod:`.counters` — a process-local registry of named integer counters
  behind a module-level ``ACTIVE`` global (``None`` unless a collection
  is in progress); the simulator's fast paths increment them so perf
  claims ("the trusted reserve path fires", "compression passes are
  skipped") are measurable instead of asserted.
* :mod:`.trace` — a :class:`~repro.obs.trace.TraceObserver` streaming
  schema-versioned JSONL event records (arrival/start/completion/kill/
  scheduling pass) to a file or ring buffer, plus the reader and
  summarizer behind ``repro trace run|summarize``.
* :mod:`.log` — standard :mod:`logging` wiring (``repro.*`` loggers,
  CLI ``-v``/``-q`` mapping).

This package sits *below* :mod:`repro.core` in the layer map: core hot
paths import :mod:`.counters`.  The trace module imports core (it extends
``Observer``) and is therefore imported lazily — ``from repro.obs.trace
import TraceObserver`` — never from this ``__init__``.
"""

from .counters import (
    CATALOG,
    CATALOG_NAMES,
    Counters,
)
from .counters import (
    collect as collect_counters,
)
from .counters import (
    render as render_counters,
)
from .log import get_logger, setup_logging
from .stats import ProgressMeter, format_eta, percentile, timing_summary

__all__ = [
    "CATALOG",
    "CATALOG_NAMES",
    "Counters",
    "ProgressMeter",
    "collect_counters",
    "format_eta",
    "get_logger",
    "percentile",
    "render_counters",
    "setup_logging",
    "timing_summary",
]
