"""Cross-run comparison of stored grids (``repro-arrow results compare``).

:func:`compare_rows` diffs two stored runs — typically this branch's
fresh grid against a committed baseline store — cell by cell, reporting
percent deltas per numeric column.  Identity columns (``cell_id``,
``index``, seeds...) are compared for equality; the ``engine`` label is
ignored by default (the engines are bit-identical).  With a tolerance,
any delta beyond it fails the comparison.

:meth:`RowComparison.to_doc` serialises a canonical
``BENCH_results.json`` document: sorted keys, no timestamps, so
committed trajectories diff cleanly run over run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
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


def _numeric_items(row: dict[str, Any], ignore: tuple[str, ...]):
    for k, v in row.items():
        if k in ignore:
            continue
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            yield k, float(v)


#: A row's keys then its value types -> (its numeric columns, its float ones).
_Shapes = dict[tuple, tuple[tuple[str, ...], list[str]]]


def _self_columns(
    row: dict[str, Any], ignore: tuple[str, ...], shapes: _Shapes
) -> tuple[str, ...] | None:
    """The numeric columns of a row paired with itself, each a 0 % delta;
    ``None`` when a value is NaN (NaN != NaN: the walk reports it).

    The rows of a grid come in a few shapes, so each shape's columns are
    found once.  A row's float values are then only summed: the sum is NaN
    if one is (or if they hold both infinities, and such a row is walked).
    """
    shape = (*row, *map(type, row.values()))
    if (known := shapes.get(shape)) is None:
        numeric = [k for k, v in row.items()
                   if k not in ignore and isinstance(v, (int, float)) and not isinstance(v, bool)]
        known = shapes[shape] = tuple(numeric), [k for k in numeric if isinstance(row[k], float)]
    columns, floats = known
    if floats and (total := sum(map(row.__getitem__, floats))) != total:
        return None
    return columns


def _by_cell_id(
    rows: Iterable[dict[str, Any]], side: str, problems: list[str]
) -> dict[str, dict[str, Any]]:
    """Index one side's rows by ``cell_id``; every row that cannot be
    paired (no string id, or a repeated one) is a problem naming it."""
    by_id: dict[str, dict[str, Any]] = {}
    for n, row in enumerate(rows, 1):
        cid = row.get("cell_id")
        if not isinstance(cid, str):
            problems.append(f"{side} row {n}: no string cell_id, cannot be compared")
        elif cid in by_id:
            problems.append(f"{side} row {n}: cell_id {cid!r} repeated")
        else:
            by_id[cid] = row
    return by_id


def compare_rows(
    rows_a: Iterable[dict[str, Any]],
    rows_b: Iterable[dict[str, Any]],
    *,
    ignore: tuple[str, ...] = ("engine",),
    max_delta_pct: float | None = None,
) -> RowComparison:
    """Diff two row sets cell by cell; returns a :class:`RowComparison`.

    Rows pair up by ``cell_id``; a cell present on only one side is a
    problem (the runs cover different grids or one is partial), and so is
    a row without a string ``cell_id`` or one repeating a ``cell_id`` of
    its side — a row is compared or reported, never silently dropped.  Every
    shared numeric column (minus ``ignore``) gets a percent delta
    ``(b - a) / a * 100`` — a zero baseline with a non-zero fresh value
    reports as a problem rather than an infinite percentage.  Non-numeric
    columns (cell ids, fault labels, ``exclusion_ok``...) must be equal.
    A pair that is one object (both sides read one line through a shared
    ``known`` map, :func:`repro.sweep.persist._decode`) is not walked: it
    counts as 0 % in each of its numeric columns, which changes no
    column's left-to-right total (``x + 0.0 == x``), changed count or
    largest delta — unless a value is NaN, and such a pair is walked.
    """
    problems: list[str] = []
    by_id_a = _by_cell_id(rows_a, "A", problems)
    by_id_b = _by_cell_id(rows_b, "B", problems)
    cmp = RowComparison(
        cells_a=len(by_id_a),
        cells_b=len(by_id_b),
        compared=0,
        problems=problems,
        max_delta_pct=max_delta_pct,
    )
    only_a = sorted(set(by_id_a) - set(by_id_b))
    only_b = sorted(set(by_id_b) - set(by_id_a))
    if only_a:
        cmp.problems.append(
            f"{len(only_a)} cell(s) only in A, e.g. {only_a[:3]}"
        )
    if only_b:
        cmp.problems.append(
            f"{len(only_b)} cell(s) only in B, e.g. {only_b[:3]}"
        )

    sums: dict[str, list[float]] = {}  # column -> deltas of walked pairs
    zeros: dict[tuple[str, ...], int] = {}  # a one-object pair's columns -> pairs
    # Columns whose first delta was a one-object pair's 0 %: a NaN walked
    # later cannot start their ``max`` (the order of a maximum over NaN).
    lead_zero: set[str] = set()
    shapes: _Shapes = {}
    deltas: list[tuple[float, str, str, float, float, float]] = []
    for cid in sorted(set(by_id_a) & set(by_id_b)):
        ra, rb = by_id_a[cid], by_id_b[cid]
        cmp.compared += 1
        if ra is rb and (same := _self_columns(ra, ignore, shapes)) is not None:
            if same not in zeros:
                zeros[same] = 0
                lead_zero.update(k for k in same if k not in sums)
            zeros[same] += 1
            continue
        na = dict(_numeric_items(ra, ignore))
        nb = dict(_numeric_items(rb, ignore))
        for k in sorted(na.keys() | nb.keys()):
            if k not in na or k not in nb:
                cmp.problems.append(
                    f"{cid}: column {k!r} present on one side only"
                )
                continue
            a, b = na[k], nb[k]
            if a == b:
                pct = 0.0
            elif a == 0.0:
                cmp.problems.append(
                    f"{cid}: {k} changed from 0 to {b:g} "
                    "(percent delta undefined)"
                )
                continue
            else:
                pct = (b - a) / a * 100.0
            sums.setdefault(k, []).append(pct)
            if pct != 0.0:
                deltas.append((abs(pct), cid, k, a, b, pct))
        for k in sorted(
            (ra.keys() | rb.keys())
            - set(na)
            - set(nb)
            - set(ignore)
        ):
            if ra.get(k) != rb.get(k):
                cmp.problems.append(
                    f"{cid}: non-numeric column {k!r} differs: "
                    f"{ra.get(k)!r} vs {rb.get(k)!r}"
                )

    cells = {k: len(pcts) for k, pcts in sums.items()}
    for same, pairs in zeros.items():
        for k in same:
            cells[k] = cells.get(k, 0) + pairs
    for k in sorted(cells):
        pcts = sums.get(k, [])
        lead = (0.0,) if k in lead_zero else ()
        cmp.columns[k] = {
            "cells": float(cells[k]),
            "changed": float(sum(p != 0.0 for p in pcts)),
            "mean_pct": float_total(pcts) / cells[k],
            "max_abs_pct": max(chain(lead, map(abs, pcts)), default=0.0),
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
