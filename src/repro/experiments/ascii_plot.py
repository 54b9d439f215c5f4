"""Minimal ASCII scatter/line plots for terminal output.

Good enough to eyeball the paper's figure shapes (flat vs linear growth in
Fig. 10, sub-1 hop counts in Fig. 11) straight from the CLI or the bench
logs, with no plotting dependency — plus the dot picture of a Section 4
instance that Fig. 9 draws.
"""

from __future__ import annotations

import math

from repro.core.requests import RequestSchedule
from repro.experiments.records import ExperimentResult

__all__ = ["plot", "render_instance"]

_MARKS = "ox+*#@%"


def plot(
    result: ExperimentResult, *, width: int = 64, height: int = 16
) -> str:
    """Render all series of a result into one character grid.

    Only complete, finite ``(x, y)`` pairs are plotted: a series whose
    ``ys`` ran short of its ``xs`` (or that is empty outright, or whose
    values are ``inf`` / ``nan``) contributes its plottable points —
    possibly none — to the grid and the axis ranges, and still gets a
    legend entry (marked ``no data`` when it plotted no points) rather
    than crashing the whole plot on an empty ``min()``.
    """
    points = [
        [(x, y) for x, y in zip(s.xs, s.ys) if math.isfinite(x) and math.isfinite(y)]
        for s in result.series
    ]
    xs_all = [x for pts in points for x, _ in pts]
    ys_all = [y for pts in points for _, y in pts]
    if not xs_all or not ys_all:
        return f"(empty plot: {result.title})"
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    grid = [[" "] * width for _ in range(height)]
    for si, pts in enumerate(points):
        mark = _MARKS[si % len(_MARKS)]
        for x, y in pts:
            c = int((x - x_lo) / (x_hi - x_lo) * (width - 1))
            r = int((y - y_lo) / (y_hi - y_lo) * (height - 1))
            grid[height - 1 - r][c] = mark
    lines = [f"{result.title}  (y: {y_lo:.3g}..{y_hi:.3g})"]
    lines += ["|" + "".join(row) for row in grid]
    lines.append("+" + "-" * width)
    lines.append(f" x: {result.xlabel} {x_lo:.3g}..{x_hi:.3g}")
    legend = "  ".join(
        f"{_MARKS[i % len(_MARKS)]} {s.name}"
        + ("" if points[i] else " (no data)")
        for i, s in enumerate(result.series)
    )
    lines.append(" " + legend)
    return "\n".join(lines)


def render_instance(
    schedule: RequestSchedule, D: int, *, width: int = 65
) -> str:
    """The (position, time) dot pattern of a path instance, Fig. 9 style."""
    times = sorted({r.time for r in schedule})
    scale = (width - 1) / max(1, D)
    lines = []
    for t in times:
        row = [" "] * width
        for r in schedule:
            if r.time == t:
                row[int(r.node * scale)] = "*"
        lines.append(f"t={int(t):3d} |" + "".join(row) + "|")
    return "\n".join(lines)
