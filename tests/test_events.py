"""Unit tests for the event queue."""

import pytest

from repro.core.events import EventKind, EventQueue


class TestOrdering:
    def test_time_order(self):
        q = EventQueue()
        q.push(5.0, EventKind.ARRIVAL, "b")
        q.push(1.0, EventKind.ARRIVAL, "a")
        q.push(9.0, EventKind.ARRIVAL, "c")
        assert [q.pop().payload for _ in range(3)] == ["a", "b", "c"]

    def test_kind_tiebreak_completion_before_arrival(self):
        q = EventQueue()
        q.push(1.0, EventKind.ARRIVAL, "arrive")
        q.push(1.0, EventKind.COMPLETION, "complete")
        q.push(1.0, EventKind.DECAY_TICK, "decay")
        kinds = [q.pop().kind for _ in range(3)]
        assert kinds == [
            EventKind.COMPLETION, EventKind.ARRIVAL, EventKind.DECAY_TICK,
        ]

    def test_insertion_order_within_kind(self):
        q = EventQueue()
        for name in "abc":
            q.push(1.0, EventKind.ARRIVAL, name)
        assert [q.pop().payload for _ in range(3)] == ["a", "b", "c"]


class TestCancellation:
    def test_cancelled_events_skipped(self):
        q = EventQueue()
        ev = q.push(1.0, EventKind.ARRIVAL, "dead")
        q.push(2.0, EventKind.ARRIVAL, "live")
        q.cancel(ev)
        assert q.pop().payload == "live"

    def test_len_tracks_cancellation(self):
        q = EventQueue()
        ev = q.push(1.0, EventKind.ARRIVAL)
        assert len(q) == 1
        q.cancel(ev)
        assert len(q) == 0
        assert not q

    def test_double_cancel_is_idempotent(self):
        q = EventQueue()
        ev = q.push(1.0, EventKind.ARRIVAL)
        q.push(2.0, EventKind.ARRIVAL)
        q.cancel(ev)
        q.cancel(ev)
        assert len(q) == 1


class TestEdges:
    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, EventKind.ARRIVAL)

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek() is None
        ev = q.push(3.0, EventKind.ARRIVAL)
        q.push(7.0, EventKind.ARRIVAL)
        assert q.peek().time == 3.0
        q.cancel(ev)
        assert q.peek().time == 7.0
        assert len(q) == 1
