"""Queue-depth / backlog observer.

The paper's Section 2.2 narrative ("extremely high queue lengths and wait
times" during overload weeks) is about queue dynamics no per-job metric
shows.  This observer integrates queue length and queued node-demand over
time and can replay the full step series for plotting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..core.engine import Engine, Observer
from ..core.job import Job
from ..core.results import SimulationResult


@dataclass(frozen=True)
class QueueStats:
    time_avg_queue_length: float
    time_avg_queued_nodes: float
    max_queue_length: int
    max_queued_nodes: int
    #: longest continuous stretch with a non-empty queue, seconds
    longest_busy_queue_spell: float


class QueueObserver(Observer):
    """Tracks the waiting-job population between events."""

    def __init__(self, record_series: bool = False) -> None:
        self.record_series = record_series
        self._len = 0
        self._nodes = 0
        self._last = 0.0
        self._len_integral = 0.0
        self._nodes_integral = 0.0
        self._max_len = 0
        self._max_nodes = 0
        self._span_start: float | None = None
        self._spell_start: float | None = None
        self._longest_spell = 0.0
        self._end = 0.0
        #: optional (time, queue_length, queued_nodes) step series
        self.series: List[Tuple[float, int, int]] = []

    def on_attach(self, engine: Engine) -> None:
        self._last = engine.now

    def _advance(self, now: float) -> None:
        dt = now - self._last
        if dt < 0:
            raise RuntimeError("time went backwards in QueueObserver")
        if dt > 0:
            self._len_integral += self._len * dt
            self._nodes_integral += self._nodes * dt
            self._last = now

    def _mark(self, now: float) -> None:
        if self._span_start is None:
            self._span_start = now
        self._end = now
        self._max_len = max(self._max_len, self._len)
        self._max_nodes = max(self._max_nodes, self._nodes)
        if self._len > 0 and self._spell_start is None:
            self._spell_start = now
        elif self._len == 0 and self._spell_start is not None:
            self._longest_spell = max(self._longest_spell, now - self._spell_start)
            self._spell_start = None
        if self.record_series:
            self.series.append((now, self._len, self._nodes))

    def on_arrival(self, job: Job, now: float) -> None:
        self._advance(now)
        self._len += 1
        self._nodes += job.nodes
        self._mark(now)

    def on_start(self, job: Job, now: float) -> None:
        self._advance(now)
        self._len -= 1
        self._nodes -= job.nodes
        if self._len < 0 or self._nodes < 0:
            raise RuntimeError("queue accounting went negative")
        self._mark(now)

    def on_end(self, now: float) -> None:
        self._advance(now)
        self._end = max(self._end, now)
        if self._spell_start is not None:
            self._longest_spell = max(self._longest_spell, now - self._spell_start)
            self._spell_start = None

    def stats(self) -> QueueStats:
        span = self._end - (self._span_start or 0.0)
        if span <= 0:
            return QueueStats(0.0, 0.0, self._max_len, self._max_nodes, 0.0)
        return QueueStats(
            time_avg_queue_length=self._len_integral / span,
            time_avg_queued_nodes=self._nodes_integral / span,
            max_queue_length=self._max_len,
            max_queued_nodes=self._max_nodes,
            longest_busy_queue_spell=self._longest_spell,
        )

    def collect(self, result: SimulationResult) -> None:
        st = self.stats()
        result.series["queue_stats"] = {
            0: st.time_avg_queue_length,
            1: st.time_avg_queued_nodes,
            2: float(st.max_queue_length),
            3: float(st.max_queued_nodes),
            4: st.longest_busy_queue_spell,
        }
