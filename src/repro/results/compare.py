"""Cross-run comparison of stored grids (``repro-arrow results compare``).

:func:`compare_rows` diffs two stored runs — typically this branch's
fresh grid against a committed baseline store — cell by cell, reporting
percent deltas per numeric column.  Identity columns (``cell_id``,
``index``, seeds...) are compared for equality, every column included:
rows name no engine, so a fast and a message run of one grid compare
equal.  With a tolerance, any delta beyond it fails the comparison.

:meth:`RowComparison.to_doc` serialises a canonical
``BENCH_results.json`` document: sorted keys, no timestamps, so
committed trajectories diff cleanly run over run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Any, Iterable

from repro.core.totals import float_total

__all__ = [
    "RowComparison",
    "compare_rows",
]

#: How many offending per-cell deltas a comparison names before eliding.
_DELTA_CAP = 50


@dataclass
class RowComparison:
    """Outcome of a per-cell diff between two runs of one grid shape."""

    cells_a: int
    cells_b: int
    #: Cells present in both runs (the compared population).
    compared: int
    #: Structural problems: missing cells, non-numeric disagreements.
    problems: list[str] = field(default_factory=list)
    #: column -> {"cells", "changed", "mean_pct", "max_abs_pct"}.
    columns: dict[str, dict[str, float]] = field(default_factory=dict)
    #: Largest per-cell deltas: (abs_pct, cell_id, column, a, b, pct).
    top_deltas: list[tuple[float, str, str, float, float, float]] = field(
        default_factory=list
    )
    #: Deltas beyond the tolerance (empty when none given or none exceed).
    exceeding: list[str] = field(default_factory=list)
    max_delta_pct: float | None = None

    @property
    def ok(self) -> bool:
        return not self.problems and not self.exceeding

    def to_doc(self) -> dict[str, Any]:
        """Canonical JSON-able trajectory document (BENCH_results.json)."""
        return {
            "mode": "rows",
            "cells_a": self.cells_a,
            "cells_b": self.cells_b,
            "compared": self.compared,
            "columns": {
                k: dict(sorted(v.items())) for k, v in sorted(self.columns.items())
            },
            "top_deltas": [
                {
                    "cell_id": cell,
                    "column": col,
                    "a": a,
                    "b": b,
                    "pct": pct,
                }
                for _, cell, col, a, b, pct in self.top_deltas
            ],
            "problems": list(self.problems),
            "exceeding": list(self.exceeding),
            "max_delta_pct": self.max_delta_pct,
            "ok": self.ok,
        }

    def report_lines(self) -> list[str]:
        """Human-readable summary, one line per column + notable deltas."""
        lines = [
            f"compared {self.compared} cell(s) "
            f"({self.cells_a} in A, {self.cells_b} in B)"
        ]
        for col, stats in sorted(self.columns.items()):
            if stats["changed"]:
                lines.append(
                    f"  {col}: {int(stats['changed'])}/{int(stats['cells'])} "
                    f"cell(s) changed, mean {stats['mean_pct']:+.2f}%, "
                    f"max |{stats['max_abs_pct']:.2f}|%"
                )
            else:
                lines.append(
                    f"  {col}: identical across {int(stats['cells'])} cell(s)"
                )
        for _, cell, col, a, b, pct in self.top_deltas[:10]:
            lines.append(f"  {cell}: {col} {a:g} -> {b:g} ({pct:+.2f}%)")
        return lines


def _numeric_items(row: dict[str, Any]):
    for k, v in row.items():
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            yield k, float(v)


#: A row's keys then its value types -> (its numeric columns, its float ones).
_Shapes = dict[tuple, tuple[tuple[str, ...], list[str]]]


def _self_columns(row: dict[str, Any], shapes: _Shapes) -> tuple[str, ...] | None:
    """The numeric columns of a row paired with itself, each a 0 % delta;
    ``None`` when a value is NaN (NaN != NaN: the walk reports it).

    The rows of a grid come in a few shapes, so each shape's columns are
    found once.  A row's float values are then only summed: the sum is NaN
    if one is (or if they hold both infinities, and such a row is walked).
    """
    shape = (*row, *map(type, row.values()))
    if (known := shapes.get(shape)) is None:
        numeric = [k for k, v in row.items()
                   if isinstance(v, (int, float)) and not isinstance(v, bool)]
        known = shapes[shape] = tuple(numeric), [k for k in numeric if isinstance(row[k], float)]
    columns, floats = known
    if floats and (total := sum(map(row.__getitem__, floats))) != total:
        return None
    return columns


def compare_rows(
    rows_a: Iterable[dict[str, Any]],
    rows_b: Iterable[dict[str, Any]],
    *,
    max_delta_pct: float | None = None,
) -> RowComparison:
    """Diff two row sets cell by cell; returns a :class:`RowComparison`.

    Rows pair up by ``cell_id``; a cell present on only one side is a
    problem (the runs cover different grids or one is partial), and so is
    a row without a string ``cell_id`` or one repeating a ``cell_id`` of
    its side — a row is compared or reported, never silently dropped.  Every
    shared numeric column gets a percent delta
    ``(b - a) / a * 100`` — a zero baseline with a non-zero fresh value
    reports as a problem rather than an infinite percentage.  Non-numeric
    columns (cell ids, fault labels, ``exclusion_ok``...) must be equal.

    The two sides are walked in lockstep: a row is paired as soon as its
    partner has arrived and is parked until then, so two runs in one
    order hold a row of each, plus the paired ids and the non-zero
    deltas.  Those are totalled in sorted cell-id order at the end, the
    order of a walk over all cells, so no number depends on row order.
    A pair that is one object (both sides read one line through a shared
    ``known`` map, :func:`repro.sweep.persist._decode`) is not walked: it
    counts as 0 % in each of its numeric columns, which changes no
    column's left-to-right total (``x + 0.0 == x``), changed count or
    largest delta — unless a value is NaN, and such a pair is walked.
    """
    sides = ("A", "B")
    problems: dict[str, list[str]] = {side: [] for side in sides}
    parked: dict[str, dict[str, dict[str, Any]]] = {side: {} for side in sides}
    seen = dict.fromkeys(sides, 0)  # rows read per side
    paired: set[str] = set()
    pair_problems: list[tuple[str, str]] = []  # (cell id, problem)
    cells: dict[str, int] = {}  # column -> pairs carrying it
    # column -> (first cell id carrying it, its delta there): a maximum over
    # deltas in cell-id order is NaN exactly when its first delta is.
    first: dict[str, tuple[str, float]] = {}
    zeros: dict[tuple[str, ...], list] = {}  # a one-object pair's columns -> [pairs, first id]
    shapes: _Shapes = {}
    deltas: list[tuple[float, str, str, float, float, float]] = []

    def count(cid: str, k: str, pct: float, pairs: int = 1) -> None:
        cells[k] = cells.get(k, 0) + pairs
        if (lead := first.get(k)) is None or cid < lead[0]:
            first[k] = cid, pct

    def walk(cid: str, ra: dict[str, Any], rb: dict[str, Any]) -> None:
        if ra is rb and (same := _self_columns(ra, shapes)) is not None:
            if (tally := zeros.get(same)) is None:
                zeros[same] = [1, cid]
            else:
                tally[0] += 1
                tally[1] = min(tally[1], cid)
            return
        na = dict(_numeric_items(ra))
        nb = dict(_numeric_items(rb))
        for k in sorted(na.keys() | nb.keys()):
            if k not in na or k not in nb:
                pair_problems.append((cid, f"{cid}: column {k!r} present on one side only"))
                continue
            a, b = na[k], nb[k]
            if a == b:
                pct = 0.0
            elif a == 0.0:
                pair_problems.append((cid, f"{cid}: {k} changed from 0 to {b:g} "
                                           "(percent delta undefined)"))
                continue
            else:
                pct = (b - a) / a * 100.0
            count(cid, k, pct)
            if pct != 0.0:
                deltas.append((abs(pct), cid, k, a, b, pct))
        for k in sorted((ra.keys() | rb.keys()) - set(na) - set(nb)):
            if ra.get(k) != rb.get(k):
                pair_problems.append((cid, f"{cid}: non-numeric column {k!r} differs: "
                                           f"{ra.get(k)!r} vs {rb.get(k)!r}"))

    def arrive(side: str, row: dict[str, Any], other: str) -> None:
        seen[side] += 1
        cid = row.get("cell_id")
        if not isinstance(cid, str):
            problems[side].append(
                f"{side} row {seen[side]}: no string cell_id, cannot be compared")
        elif cid in paired or cid in parked[side]:
            problems[side].append(f"{side} row {seen[side]}: cell_id {cid!r} repeated")
        elif (partner := parked[other].pop(cid, None)) is None:
            parked[side][cid] = row
        else:
            paired.add(cid)
            walk(cid, *((partner, row) if side == "B" else (row, partner)))

    for ra, rb in zip_longest(rows_a, rows_b, fillvalue=None):
        if ra is not None:
            arrive("A", ra, "B")
        if rb is not None:
            arrive("B", rb, "A")

    cmp = RowComparison(
        cells_a=len(paired) + len(parked["A"]),
        cells_b=len(paired) + len(parked["B"]),
        compared=len(paired),
        problems=problems["A"] + problems["B"],
        max_delta_pct=max_delta_pct,
    )
    for side in sides:
        if only := sorted(parked[side]):
            cmp.problems.append(f"{len(only)} cell(s) only in {side}, e.g. {only[:3]}")
    pair_problems.sort(key=lambda p: p[0])  # stable: a cell's own order stays
    cmp.problems += [problem for _, problem in pair_problems]

    for same, (pairs, cid) in zeros.items():
        for k in same:
            count(cid, k, 0.0, pairs)
    deltas.sort(key=lambda d: (d[1], d[2]))  # the order of a walk by cell id
    changed: dict[str, list[float]] = {}  # column -> non-zero deltas, in that order
    for _, _, k, _, _, pct in deltas:
        changed.setdefault(k, []).append(pct)
    for k in sorted(cells):
        pcts = changed.get(k, [])
        lead = first[k][1]
        cmp.columns[k] = {
            "cells": float(cells[k]),
            "changed": float(len(pcts)),
            "mean_pct": float_total(pcts) / cells[k],
            "max_abs_pct": abs(lead) if lead != lead else max(
                (abs(p) for p in pcts if p == p), default=0.0),
        }
    deltas.sort(key=lambda d: (-d[0], d[1], d[2]))
    cmp.top_deltas = deltas[:_DELTA_CAP]
    if max_delta_pct is not None:
        for absp, cid, k, a, b, pct in deltas:
            if absp > max_delta_pct:
                cmp.exceeding.append(
                    f"{cid}: {k} {a:g} -> {b:g} ({pct:+.2f}% beyond "
                    f"±{max_delta_pct}%)"
                )
    return cmp
