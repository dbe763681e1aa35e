"""Plain-text rendering of the paper's bar charts and scatter plots.

Figures become labeled value tables with ASCII bars, and scatter figures
become log-binned 2D density tables — enough to eyeball the shapes
against the paper without a plotting stack.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

import numpy as np


def bar_chart(
    title: str,
    values: Mapping[str, float],
    unit: str = "",
    percent: bool = False,
    width: int = 44,
) -> str:
    """Render a policy->value mapping as labeled ASCII bars."""
    if not values:
        return f"{title}\n  (no data)"
    vmax = max(values.values()) or 1.0
    lines = [title]
    for name, v in values.items():
        n = int(round(width * v / vmax)) if vmax > 0 else 0
        shown = f"{100 * v:.2f}%" if percent else f"{v:,.0f}{unit}"
        lines.append(f"  {name:<22} {shown:>12} |{'#' * n}")
    return "\n".join(lines)


def series_table(
    title: str,
    row_labels: Sequence[str],
    columns: Mapping[str, np.ndarray],
    fmt: str = "{:>14.0f}",
) -> str:
    """Rows = categories (e.g. widths), columns = policies."""
    names = list(columns)
    head = " " * 12 + "".join(n.rjust(20)[:20] for n in names)
    lines = [title, head]
    for i, label in enumerate(row_labels):
        row = f"{label:<12}" + "".join(
            fmt.format(columns[n][i]).rjust(20)[:20] for n in names
        )
        lines.append(row)
    return "\n".join(lines)


def log_density(
    title: str,
    x: np.ndarray,
    y: np.ndarray,
    x_label: str,
    y_label: str,
    bins: int = 8,
) -> str:
    """A coarse log-log 2D histogram as text (scatter-figure stand-in)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ok = (x > 0) & (y > 0)
    x, y = x[ok], y[ok]
    if len(x) == 0:
        return f"{title}\n  (no positive data)"
    lx, ly = np.log10(x), np.log10(y)
    xe = np.linspace(lx.min(), lx.max() + 1e-9, bins + 1)
    ye = np.linspace(ly.min(), ly.max() + 1e-9, bins + 1)
    h, _, _ = np.histogram2d(lx, ly, bins=[xe, ye])
    lines = [title, f"rows: {y_label} (log10 desc), cols: {x_label} (log10 asc)"]
    header = " " * 10 + "".join(f"{v:>8.1f}" for v in (xe[:-1] + xe[1:]) / 2)
    lines.append(header)
    for j in reversed(range(bins)):
        mid = (ye[j] + ye[j + 1]) / 2
        row = f"{mid:>8.1f}  " + "".join(
            f"{int(h[i, j]):>8d}" if h[i, j] else "       ." for i in range(bins)
        )
        lines.append(row)
    return "\n".join(lines)


def binned_medians(
    x: np.ndarray, y: np.ndarray, bins: int = 10
) -> Dict[str, np.ndarray]:
    """Median of y per log-bin of x (for the Figure 6/7 trend check)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ok = (x > 0) & np.isfinite(y)
    x, y = x[ok], y[ok]
    if len(x) == 0:
        return {"bin_center": np.array([]), "median": np.array([]), "count": np.array([])}
    lx = np.log10(x)
    edges = np.linspace(lx.min(), lx.max() + 1e-9, bins + 1)
    idx = np.clip(np.digitize(lx, edges) - 1, 0, bins - 1)
    centers = 10 ** ((edges[:-1] + edges[1:]) / 2)
    med = np.full(bins, np.nan)
    cnt = np.zeros(bins, dtype=int)
    for b in range(bins):
        sel = idx == b
        cnt[b] = sel.sum()
        if cnt[b]:
            med[b] = np.median(y[sel])
    return {"bin_center": centers, "median": med, "count": cnt}
