"""Availability-over-time profile used by backfilling schedulers.

The profile is the scheduler's view of the future: a piecewise-constant
function from time to the number of nodes *not* committed to running jobs or
reservations.  Backfilling is, operationally, two queries against this
structure: "when is the earliest time a (nodes x duration) rectangle fits?"
(``earliest_fit``) and "commit/uncommit that rectangle"
(``reserve_fitted`` / ``release_reserved``).

The representation is two parallel lists: ``times`` (sorted segment starts)
and ``avail`` (available nodes on ``[times[i], times[i+1])``); the final
segment extends to +infinity.  This is the hottest structure in the
simulator (every conservative-backfill compression pass performs O(queue)
release/fit/reserve cycles against it), so mutation keeps the profile
*always coalesced* — adjacent equal segments are merged at the mutation
boundary in O(1) extra work — and mutation is trusted: a reserve follows an
``earliest_fit`` and a release undoes a prior reserve, so neither re-scans
for over-subscription.  ``check_invariants`` and
``tests/test_profile_reference.py``, which checks the structure against a
brute-force model under randomized op sequences, catch misuse.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import List, Optional, Tuple

from ..obs import counters as _counters


class ProfileError(RuntimeError):
    """Over-subscription or malformed interval — indicates a scheduler bug."""


class ReservationProfile:
    """Piecewise-constant available-node timeline for a ``size``-node cluster."""

    __slots__ = ("size", "times", "avail")

    def __init__(self, size: int, start_time: float = 0.0) -> None:
        if size <= 0:
            raise ValueError(f"profile size must be positive, got {size}")
        self.size = size
        self.times: List[float] = [start_time]
        self.avail: List[int] = [size]

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.times)

    def available_at(self, t: float) -> int:
        """Available nodes at time ``t`` (t must be >= the profile origin)."""
        i = bisect_right(self.times, t) - 1
        if i < 0:
            raise ValueError(f"time {t} precedes profile origin {self.times[0]}")
        return self.avail[i]

    def min_available(self, start: float, end: float) -> int:
        """Minimum availability over [start, end)."""
        if end <= start:
            raise ValueError(f"empty interval [{start}, {end})")
        times = self.times
        avail = self.avail
        i = bisect_right(times, start) - 1
        if i < 0:
            i = 0
        n = len(times)
        lo = avail[i]
        i += 1
        while i < n and times[i] < end:
            a = avail[i]
            if a < lo:
                lo = a
            i += 1
        return lo

    def earliest_fit(
        self,
        nodes: int,
        duration: float,
        earliest: float,
        before: float = math.inf,
    ) -> Optional[float]:
        """Earliest start >= ``earliest`` where ``nodes`` are free for
        ``duration`` seconds.

        Always succeeds for nodes <= size because the final segment is
        unbounded.  With a finite ``before`` only starts ``< before`` are
        searched and each window is clipped at ``before``; the result is
        ``None`` when no such start fits.  Conservative compression asks
        this of a job whose own reservation begins at ``before``: the part
        of a window past ``before`` lies inside that reservation, so the
        clipped answer is the job's earliest start once it is released.
        """
        if nodes > self.size:
            raise ProfileError(f"request for {nodes} nodes exceeds size {self.size}")
        if nodes <= 0:
            raise ValueError("nodes must be positive")
        if duration <= 0:
            raise ValueError("duration must be positive")
        c = _counters.ACTIVE
        if c is not None:
            c.hit("profile.earliest_fit")
        times = self.times
        avail = self.avail
        if earliest < times[0]:
            earliest = times[0]
        j = bisect_right(times, earliest) - 1
        if j < 0:
            j = 0
        n = len(times)
        anchor = earliest
        while True:
            if anchor >= before:
                return None
            end_needed = anchor + duration
            if end_needed > before:
                end_needed = before
            while avail[j] >= nodes:
                # segment j satisfies the request; does the window reach?
                j += 1
                if j >= n or times[j] >= end_needed:
                    return anchor
            # blocked: restart the window after this segment
            j += 1
            if j >= n:  # the unbounded tail always has the full size
                raise ProfileError(
                    "unbounded tail segment has insufficient nodes; "
                    "profile is over-committed"
                )
            anchor = times[j]

    # -- mutation ----------------------------------------------------------------

    def _apply_span(self, start: float, end: float, delta: int) -> None:
        """Add ``delta`` over [start, end) and re-merge the two boundaries.

        Interior segments keep their pairwise differences under a uniform
        delta, so only the boundary pairs can become equal; checking those
        two spots keeps the profile permanently coalesced.  Breakpoint
        creation is inlined: this is the single hottest function in the
        simulator.
        """
        times = self.times
        avail = self.avail
        i = bisect_right(times, start) - 1
        if i < 0:
            raise ValueError(f"time {start} precedes profile origin {times[0]}")
        if times[i] != start:
            i += 1
            times.insert(i, start)
            avail.insert(i, avail[i - 1])
        j = bisect_right(times, end, i) - 1
        if times[j] != end:
            j += 1
            times.insert(j, end)
            avail.insert(j, avail[j - 1])
        for k in range(i, j):
            avail[k] += delta
        if avail[j - 1] == avail[j]:
            del times[j]
            del avail[j]
        if i > 0 and avail[i - 1] == avail[i]:
            del times[i]
            del avail[i]

    def reserve_fitted(self, start: float, end: float, nodes: int) -> None:
        """Commit ``nodes`` over [start, end), a rectangle known to fit.

        Callers must have obtained ``start`` from :meth:`earliest_fit` (or
        otherwise guaranteed ``min_available(start, end) >= nodes``); nothing
        here re-checks it.  Misuse is caught by :meth:`check_invariants` and
        the differential test suite.
        """
        c = _counters.ACTIVE
        if c is not None:
            c.hit("profile.reserve_fitted")
        self._apply_span(start, end, -nodes)

    def release_reserved(self, start: float, end: float, nodes: int) -> None:
        """Undo a prior :meth:`reserve_fitted` of the same rectangle."""
        c = _counters.ACTIVE
        if c is not None:
            c.hit("profile.release_reserved")
        self._apply_span(start, end, nodes)

    def advance(self, now: float) -> None:
        """Forget history before ``now`` (keeps the structure small)."""
        times = self.times
        i = bisect_right(times, now) - 1
        if i <= 0:
            return
        avail = self.avail
        del times[:i]
        del avail[:i]
        times[0] = now
        # trimming can leave the new head equal to its successor (the old
        # head differed only in the forgotten past); merge it here
        while len(avail) > 1 and avail[0] == avail[1]:
            del times[1]
            del avail[1]

    # -- introspection -------------------------------------------------------------

    def segments(self) -> List[Tuple[float, float, int]]:
        """(start, end, avail) triples; the last end is +inf."""
        out = []
        for i, (t, a) in enumerate(zip(self.times, self.avail)):
            end = self.times[i + 1] if i + 1 < len(self.times) else float("inf")
            out.append((t, end, a))
        return out

    def check_invariants(self) -> None:
        if len(self.times) != len(self.avail):
            raise ProfileError("times/avail length mismatch")
        for a, b in zip(self.times, self.times[1:]):
            if b <= a:
                raise ProfileError(f"times not strictly increasing: {a} !< {b}")
        for a in self.avail:
            if not (0 <= a <= self.size):
                raise ProfileError(f"availability {a} outside [0, {self.size}]")
        if self.avail[-1] != self.size:
            raise ProfileError(
                f"unbounded tail must have full availability, got {self.avail[-1]}"
            )

    def __repr__(self) -> str:
        segs = ", ".join(f"[{t:.0f},{'inf' if e == float('inf') else f'{e:.0f}'})={a}"
                         for t, e, a in self.segments()[:6])
        more = "..." if len(self.times) > 6 else ""
        return f"ReservationProfile(size={self.size}, {segs}{more})"
