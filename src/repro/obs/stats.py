"""Small numeric helpers for run statistics: percentiles and a rate/ETA
progress meter.

Kept dependency-free (no numpy) so the campaign executor's stats path
stays importable in the leanest worker context, and deterministic (pure
functions of their inputs) so stats blocks embedded in outputs do not
perturb byte-identical-rebuild checks.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    Matches ``numpy.percentile``'s default (linear) method on sorted
    input; returns 0.0 for an empty sequence rather than raising, since
    stats blocks render for empty campaigns too.
    """
    if not values:
        return 0.0
    if not (0.0 <= q <= 100.0):
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    data = sorted(values)
    if len(data) == 1:
        return float(data[0])
    pos = (len(data) - 1) * (q / 100.0)
    lo = int(pos)
    frac = pos - lo
    if lo + 1 >= len(data):
        return float(data[-1])
    return float(data[lo] * (1.0 - frac) + data[lo + 1] * frac)


def timing_summary(values: Sequence[float]) -> Dict[str, float]:
    """The standard wall-time histogram block: p50/p95/max plus total."""
    return {
        "p50": round(percentile(values, 50.0), 4),
        "p95": round(percentile(values, 95.0), 4),
        "max": round(max(values), 4) if values else 0.0,
        "total": round(sum(values), 4),
    }


def format_eta(seconds: float) -> str:
    """Compact duration: ``42s``, ``3m10s``, ``2h05m``."""
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


class ProgressMeter:
    """Tracks completion rate and remaining time for a fixed work count.

    ``note(done)`` returns a one-line suffix (``"3.1 cells/s, eta 42s"``)
    suitable for appending to a progress line.  The clock is injectable
    for tests; rate is measured over the whole run so far (cache hits
    complete instantly and legitimately pull the rate up).
    """

    def __init__(self, total: int, clock=time.perf_counter,
                 start: Optional[float] = None) -> None:
        self.total = total
        self._clock = clock
        #: when the run began (default: now), on ``clock``'s scale
        self._t0 = clock() if start is None else start

    def note(self, done: int) -> str:
        elapsed = max(self._clock() - self._t0, 1e-9)
        rate = done / elapsed
        if done >= self.total or rate <= 0:
            return f"{rate:.1f} cells/s, done in {format_eta(elapsed)}"
        eta = (self.total - done) / rate
        return f"{rate:.1f} cells/s, eta {format_eta(eta)}"


def utilization(busy_seconds: float, wall_seconds: float,
                workers: int) -> Optional[float]:
    """Fraction of worker capacity spent simulating (None when idle)."""
    if wall_seconds <= 0 or workers <= 0:
        return None
    return min(1.0, busy_seconds / (wall_seconds * workers))
