"""Width x length job categories used throughout the paper.

Tables 1-2 and Figures 10/12/16/18 bucket jobs into 11 width (node-count)
categories and 8 length (runtime) categories.  This module owns the bucket
boundaries, labels, and classification helpers; the actual CPlant numbers
live in :mod:`repro.workload.cplant`.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

MINUTE = 60.0
HOUR = 3600.0
DAY = 86_400.0

#: inclusive (lo, hi) node-count bounds per width category; hi=None is open.
WIDTH_BOUNDS: Tuple[Tuple[int, int | None], ...] = (
    (1, 1),
    (2, 2),
    (3, 4),
    (5, 8),
    (9, 16),
    (17, 32),
    (33, 64),
    (65, 128),
    (129, 256),
    (257, 512),
    (513, None),
)

WIDTH_LABELS: Tuple[str, ...] = (
    "1", "2", "3-4", "5-8", "9-16", "17-32", "33-64",
    "65-128", "129-256", "257-512", "513+",
)

#: [lo, hi) runtime bounds in seconds per length category; hi=None is open.
LENGTH_BOUNDS: Tuple[Tuple[float, float | None], ...] = (
    (0.0, 15 * MINUTE),
    (15 * MINUTE, 60 * MINUTE),
    (1 * HOUR, 4 * HOUR),
    (4 * HOUR, 8 * HOUR),
    (8 * HOUR, 16 * HOUR),
    (16 * HOUR, 24 * HOUR),
    (1 * DAY, 2 * DAY),
    (2 * DAY, None),
)

LENGTH_LABELS: Tuple[str, ...] = (
    "0-15 mins", "15-60 mins", "1-4 hrs", "4-8 hrs",
    "8-16 hrs", "16-24 hrs", "1-2 days", "2+ days",
)

N_WIDTH = len(WIDTH_BOUNDS)
N_LENGTH = len(LENGTH_BOUNDS)

# precomputed edges for vectorized classification
_WIDTH_EDGES = np.array([lo for lo, _ in WIDTH_BOUNDS], dtype=np.int64)
_LENGTH_EDGES = np.array([lo for lo, _ in LENGTH_BOUNDS], dtype=np.float64)


def width_category(nodes: int) -> int:
    """Index into WIDTH_BOUNDS for a node count."""
    if nodes < 1:
        raise ValueError(f"nodes must be >= 1, got {nodes}")
    return int(np.searchsorted(_WIDTH_EDGES, nodes, side="right")) - 1


def length_category(runtime: float) -> int:
    """Index into LENGTH_BOUNDS for a runtime in seconds."""
    if runtime < 0:
        raise ValueError(f"runtime must be >= 0, got {runtime}")
    return max(int(np.searchsorted(_LENGTH_EDGES, runtime, side="right")) - 1, 0)


def width_categories(nodes: Sequence[int]) -> np.ndarray:
    """Vectorized :func:`width_category`."""
    arr = np.asarray(nodes)
    if (arr < 1).any():
        raise ValueError("all node counts must be >= 1")
    return np.searchsorted(_WIDTH_EDGES, arr, side="right") - 1


def length_categories(runtimes: Sequence[float]) -> np.ndarray:
    """Vectorized :func:`length_category`."""
    arr = np.asarray(runtimes, dtype=np.float64)
    if (arr < 0).any():
        raise ValueError("all runtimes must be >= 0")
    return np.maximum(np.searchsorted(_LENGTH_EDGES, arr, side="right") - 1, 0)


def category_matrix(
    nodes: Sequence[int],
    runtimes: Sequence[float],
    weights: Sequence[float] | None = None,
) -> np.ndarray:
    """(N_WIDTH x N_LENGTH) histogram of jobs.

    Unweighted gives Table 1 (job counts); weighted by proc-hours gives
    Table 2.
    """
    w = width_categories(nodes)
    ln_cat = length_categories(runtimes)
    out = np.zeros((N_WIDTH, N_LENGTH), dtype=np.float64)
    if weights is None:
        np.add.at(out, (w, ln_cat), 1.0)
    else:
        np.add.at(out, (w, ln_cat), np.asarray(weights, dtype=np.float64))
    return out


def format_category_table(matrix: np.ndarray, title: str, fmt: str = "{:.0f}") -> str:
    """Render a category matrix in the paper's Tables 1/2 layout."""
    if matrix.shape != (N_WIDTH, N_LENGTH):
        raise ValueError(f"expected {(N_WIDTH, N_LENGTH)} matrix, got {matrix.shape}")
    col_w = 11
    lines = [title]
    header = " " * 14 + "".join(lab.rjust(col_w) for lab in LENGTH_LABELS)
    lines.append(header)
    for i, wlab in enumerate(WIDTH_LABELS):
        row = f"{wlab + ' nodes':<14}" + "".join(
            fmt.format(v).rjust(col_w) for v in matrix[i]
        )
        lines.append(row)
    return "\n".join(lines)
