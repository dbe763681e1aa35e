"""Discrete-event machinery: event kinds and a stable priority queue.

Events at equal timestamps are delivered in a deterministic order:
completions before arrivals before timers (so a completion at time *t*
frees nodes before the scheduling pass triggered by an arrival at *t*),
and within a kind in insertion order.

The heap holds ``(time, kind, seq, event)`` tuples rather than ordered
Event objects: tuple comparison is a single C-level operation, where a
``@dataclass(order=True)`` comparison builds two tuples per ``__lt__``
call.  ``seq`` is unique, so the trailing event object never participates
in a comparison.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from typing import Any, List, Optional, Tuple


class EventKind(enum.IntEnum):
    """Ordering of the enum values is the tie-break order at equal times."""

    COMPLETION = 0
    ARRIVAL = 1
    STARVATION_TIMER = 2
    DECAY_TICK = 3
    WCL_CHECK = 4


class Event:
    """One scheduled occurrence; identity object for cancellation."""

    __slots__ = ("time", "kind", "seq", "payload", "cancelled")

    def __init__(self, time: float, kind: EventKind, seq: int,
                 payload: Any = None) -> None:
        self.time = time
        self.kind = kind
        self.seq = seq
        self.payload = payload
        self.cancelled = False

    def __repr__(self) -> str:
        flag = ", cancelled" if self.cancelled else ""
        return f"Event(t={self.time}, {self.kind.name}, seq={self.seq}{flag})"


class EventQueue:
    """Heap-backed event queue with lazy cancellation."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        if time < 0:
            raise ValueError(f"event time must be >= 0, got {time}")
        seq = next(self._counter)
        ev = Event(time, kind, seq, payload)
        heapq.heappush(self._heap, (time, kind, seq, ev))
        self._live += 1
        return ev

    def cancel(self, event: Event) -> None:
        """Mark an event dead; it is skipped when popped."""
        if not event.cancelled:
            event.cancelled = True
            self._live -= 1

    def pop(self) -> Event:
        heap = self._heap
        while heap:
            ev = heapq.heappop(heap)[3]
            if ev.cancelled:
                continue
            self._live -= 1
            return ev
        raise IndexError("pop from empty EventQueue")

    def peek(self) -> Optional[Event]:
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        return heap[0][3] if heap else None
