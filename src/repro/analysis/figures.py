"""Plain-text figure rendering (bar charts, line charts, histograms).

The paper's evaluation mixes tables with figures (Figs. 6, 8, 13, 14); the
tables render through :mod:`repro.analysis.tables`, and these helpers give
the figures the same treatment — deterministic monospace artifacts that the
experiment drivers print.  No plotting dependency is needed
(the environment is offline).

All renderers return a single string; values must be finite and the charts
are width-stable (a value of 0 produces an empty bar, the maximum fills the
budget exactly).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

_FULL, _HALF = "#", "+"


def _check_values(values: Sequence[float]) -> np.ndarray:
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("need at least one value")
    if not np.isfinite(arr).all():
        raise ValueError("values must be finite")
    if (arr < 0).any():
        raise ValueError("bar/line charts render non-negative magnitudes")
    return arr


def bar_chart(labels: Sequence[str], values: Sequence[float],
              title: Optional[str] = None, width: int = 50,
              value_fmt: str = ".2f") -> str:
    """Horizontal bar chart: one labeled row per value.

    The largest value spans ``width`` characters; others scale linearly.
    """
    arr = _check_values(values)
    if len(labels) != arr.size:
        raise ValueError("labels and values must have the same length")
    if width < 1:
        raise ValueError("width must be >= 1")
    peak = arr.max()
    label_w = max(len(str(l)) for l in labels)
    out: List[str] = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    for label, value in zip(labels, arr):
        cells = int(round(width * value / peak)) if peak > 0 else 0
        bar = _FULL * cells
        out.append(f"{str(label).ljust(label_w)} |{bar.ljust(width)} "
                   f"{format(value, value_fmt)}")
    return "\n".join(out)


def grouped_bar_chart(groups: Sequence[str], series: Dict[str, Sequence[float]],
                      title: Optional[str] = None, width: int = 50,
                      value_fmt: str = ".2f") -> str:
    """Grouped horizontal bars: for each group, one bar per series.

    Mirrors the layout of the paper's Figs. 13/14 (per-network clusters of
    per-configuration bars).  All series share one scale.
    """
    if not series:
        raise ValueError("need at least one series")
    arrays = {name: _check_values(vals) for name, vals in series.items()}
    for name, arr in arrays.items():
        if arr.size != len(groups):
            raise ValueError(f"series {name!r} length != number of groups")
    peak = max(arr.max() for arr in arrays.values())
    name_w = max(len(name) for name in arrays)
    out: List[str] = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    for g, group in enumerate(groups):
        out.append(f"{group}:")
        for name, arr in arrays.items():
            cells = int(round(width * arr[g] / peak)) if peak > 0 else 0
            out.append(f"  {name.ljust(name_w)} |{(_FULL * cells).ljust(width)} "
                       f"{format(arr[g], value_fmt)}")
    return "\n".join(out)


def line_chart(xs: Sequence[float], series: Dict[str, Sequence[float]],
               title: Optional[str] = None, height: int = 12,
               width: int = 60, y_fmt: str = ".1f") -> str:
    """ASCII line chart: one marker character per series on a shared grid.

    Used for the Fig. 6 accuracy-vs-fragment-size and Fig. 8b EIC-vs-size
    curves.  X positions map linearly onto the column budget; Y spans the
    data range with axis annotations at the top and bottom rows.
    """
    if not series:
        raise ValueError("need at least one series")
    if height < 2 or width < 2:
        raise ValueError("height and width must be >= 2")
    xs_arr = np.asarray(list(xs), dtype=np.float64)
    if xs_arr.size < 2:
        raise ValueError("need at least two x positions")
    markers = "*o+x@%&$"
    arrays = {}
    for name, vals in series.items():
        arr = np.asarray(list(vals), dtype=np.float64)
        if arr.size != xs_arr.size:
            raise ValueError(f"series {name!r} length != len(xs)")
        if not np.isfinite(arr).all():
            raise ValueError("values must be finite")
        arrays[name] = arr

    y_min = min(arr.min() for arr in arrays.values())
    y_max = max(arr.max() for arr in arrays.values())
    span = y_max - y_min or 1.0
    x_min, x_max = xs_arr.min(), xs_arr.max()
    x_span = x_max - x_min or 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, (name, arr) in enumerate(arrays.items()):
        mark = markers[index % len(markers)]
        for x, y in zip(xs_arr, arr):
            col = int(round((x - x_min) / x_span * (width - 1)))
            row = int(round((y_max - y) / span * (height - 1)))
            grid[row][col] = mark

    out: List[str] = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    for r, row in enumerate(grid):
        if r == 0:
            axis = format(y_max, y_fmt).rjust(8)
        elif r == height - 1:
            axis = format(y_min, y_fmt).rjust(8)
        else:
            axis = " " * 8
        out.append(f"{axis} |{''.join(row)}")
    out.append(" " * 9 + "+" + "-" * width)
    x_lo, x_hi = format(x_min, "g"), format(x_max, "g")
    out.append(" " * 10 + x_lo + x_hi.rjust(width - len(x_lo)))
    legend = "   ".join(f"{markers[i % len(markers)]} {name}"
                        for i, name in enumerate(arrays))
    out.append("legend: " + legend)
    return "\n".join(out)


def histogram(values: Sequence[float], bins: int = 10,
              title: Optional[str] = None, width: int = 50) -> str:
    """Binned distribution as horizontal bars (Fig. 8a's EIC distribution)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("need at least one value")
    if not np.isfinite(arr).all():
        raise ValueError("values must be finite")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    counts, edges = np.histogram(arr, bins=bins)
    labels = [f"[{edges[i]:.3g}, {edges[i + 1]:.3g})" for i in range(bins)]
    labels[-1] = labels[-1][:-1] + "]"
    percent = 100.0 * counts / arr.size
    return bar_chart(labels, percent, title=title, width=width,
                     value_fmt=".1f")


def sparkline(values: Sequence[float]) -> str:
    """One-line trend summary using block characters (for log output)."""
    arr = _check_values(values)
    glyphs = " .:-=+*#%@"
    span = arr.max() - arr.min() or 1.0
    scaled = ((arr - arr.min()) / span * (len(glyphs) - 1)).round().astype(int)
    return "".join(glyphs[i] for i in scaled)
