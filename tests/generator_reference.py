"""Reference week assignment: the per-job ``Generator.choice`` greedy.

This is the synthetic trace's original ``_assign_weeks``, kept verbatim.
The production version in ``repro.workload.generator`` runs the same
greedy without ``choice``'s per-call validation; the differential test
in ``tests/test_generator_reference.py`` holds the two to the same weeks
and the same final RNG state, because every recorded trace digest
depends on both.
"""

from __future__ import annotations

import numpy as np


def assign_weeks(
    rng: np.random.Generator,
    areas: np.ndarray,
    profile: np.ndarray,
) -> np.ndarray:
    """Greedy weighted assignment of jobs to weeks so per-week arriving work
    tracks the profile.  Big jobs placed first against remaining deficits."""
    weeks = len(profile)
    target = profile / profile.sum() * areas.sum()
    deficit = target.copy()
    order = np.argsort(-areas)
    out = np.empty(len(areas), dtype=np.int64)
    for idx in order:
        p = np.clip(deficit, 0.0, None)
        total = p.sum()
        if total <= 0:
            week = int(rng.integers(0, weeks))
        else:
            week = int(rng.choice(weeks, p=p / total))
        out[idx] = week
        deficit[week] -= areas[idx]
    return out
