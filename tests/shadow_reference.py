"""List-based reference for the EASY head reservation (shadow time).

:func:`head_reservation` rebuilds the answer from a list of running jobs:
it sorts every running job's expected end (``start + wcl``, clamped at
``now``) and walks them until the blocked head's ``need`` nodes are
free.  It keeps no state between calls, so it is the oracle for the
simulator's persistent expected-end timeline.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro.core.job import Job


def head_reservation(
    need: int,
    free_now: int,
    now: float,
    running: Iterable[Job],
) -> Tuple[float, int]:
    """Shadow time and extra nodes for a blocked head job needing ``need``.

    Returns ``(shadow, extra)``: the earliest time ``need`` nodes are
    expected free, and how many nodes beyond ``need`` will be free then.
    A backfill candidate is safe iff it terminates by ``shadow`` or uses at
    most ``extra`` nodes.
    """
    if free_now >= need:
        return now, free_now - need
    ends = []
    for j in running:
        e = j.start_time + j.wcl
        ends.append((e if e > now else now, j.nodes))
    ends.sort()
    free = free_now
    shadow = None
    i = 0
    while i < len(ends):
        end, nodes = ends[i]
        free += nodes
        i += 1
        if free >= need:
            shadow = end
            # include jobs ending at exactly the shadow instant
            while i < len(ends) and ends[i][0] == end:
                free += ends[i][1]
                i += 1
            break
    if shadow is None:
        raise RuntimeError(
            f"head needs {need} nodes but running+free only frees {free}"
        )
    return shadow, free - need
