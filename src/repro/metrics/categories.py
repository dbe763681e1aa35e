"""Per-width-category metric breakdowns (Figures 10, 12, 16, 18).

The paper's width-categorized bar charts average a per-job quantity (miss
time or turnaround time) within each of the 11 node-count buckets.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..core.job import Job
from ..workload.categories import N_WIDTH, width_categories
from .fairness import miss_times


def _by_width(jobs: Sequence[Job], values: np.ndarray) -> np.ndarray:
    """Mean of ``values`` per width category (NaN -> 0 for empty buckets)."""
    cats = width_categories([j.nodes for j in jobs])
    sums = np.zeros(N_WIDTH)
    counts = np.zeros(N_WIDTH)
    np.add.at(sums, cats, values)
    np.add.at(counts, cats, 1.0)
    with np.errstate(invalid="ignore"):
        out = np.where(counts > 0, sums / np.maximum(counts, 1.0), 0.0)
    return out


def average_miss_by_width(jobs: Sequence[Job], fst: Dict[int, float]) -> np.ndarray:
    """Figure 10/16 series: mean FST miss time per width bucket."""
    if not jobs:
        return np.zeros(N_WIDTH)
    misses = miss_times(jobs, fst)
    vals = np.array([misses[j.id] for j in jobs])
    return _by_width(jobs, vals)


def average_turnaround_by_width(jobs: Sequence[Job]) -> np.ndarray:
    """Figure 12/18 series: mean turnaround time per width bucket."""
    if not jobs:
        return np.zeros(N_WIDTH)
    vals = np.array([j.end_time - j.submit_time for j in jobs])
    return _by_width(jobs, vals)
