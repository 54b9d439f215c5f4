"""ASCII table rendering for experiment results."""

from __future__ import annotations

import math

from repro.experiments.records import ExperimentResult

__all__ = ["format_table", "format_kv"]


def format_table(result: ExperimentResult, *, float_fmt: str = "{:.3f}") -> str:
    """Render a result as a fixed-width table, one row per x value.

    All series are assumed to share one x axis.  When they do not — the
    series carry different point counts — the x column follows the
    *longest* series, shorter series pad their missing rows with ``-``,
    and a ``note:`` line names the mismatched series instead of silently
    misaligning values against the first series' x values.
    """
    headers = [result.xlabel] + [
        s.name + (f" [{s.unit}]" if s.unit else "") for s in result.series
    ]
    xs: list[float] = []
    mismatched: list[str] = []
    if result.series:
        longest = max(result.series, key=lambda s: len(s.xs))
        xs = longest.xs
        mismatched = [
            f"{s.name} ({len(s.xs)} points)"
            for s in result.series
            if len(s.xs) != len(xs)
        ]
    rows: list[list[str]] = []
    for i, x in enumerate(xs):
        row = [_fmt(x, float_fmt)]
        for s in result.series:
            row.append(_fmt(s.ys[i], float_fmt) if i < len(s.ys) else "-")
        rows.append(row)
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in rows)) if rows else len(headers[c])
        for c in range(len(headers))
    ]
    sep = "-+-".join("-" * w for w in widths)
    out = [
        f"== {result.experiment_id}: {result.title} ==",
        " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
        sep,
    ]
    for r in rows:
        out.append(" | ".join(v.rjust(w) for v, w in zip(r, widths)))
    if mismatched:
        out.append(
            "note: series lengths differ — x column follows the longest "
            f"series ({len(xs)} points); padded: {', '.join(mismatched)}"
        )
    for note in result.notes:
        out.append(f"note: {note}")
    return "\n".join(out)


def format_kv(pairs: dict, title: str = "") -> str:
    """Render a flat key/value mapping as aligned lines."""
    width = max((len(str(k)) for k in pairs), default=0)
    lines = [f"== {title} =="] if title else []
    lines += [f"{str(k).ljust(width)} : {v}" for k, v in pairs.items()]
    return "\n".join(lines)


def _fmt(v, float_fmt: str) -> str:
    if isinstance(v, float):
        if not math.isfinite(v):
            return str(v)  # inf, -inf, nan: int(v) would raise
        if v == int(v) and abs(v) < 1e15:
            return str(int(v))
        return float_fmt.format(v)
    return str(v)
