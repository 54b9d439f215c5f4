"""Content-addressed results store over sweep JSONL artifacts.

Layout (everything deterministic — no timestamps — so a store can be
checked into a repository as a golden fixture and compared byte for
byte)::

    <root>/
      runs/<spec_hash>/spec.json      # canonical SweepSpec document
      runs/<spec_hash>/rows.jsonl     # ingested rows, grid order
      runs/<spec_hash>/manifest.json  # ingest bookkeeping

The store key is :meth:`repro.sweep.spec.SweepSpec.spec_hash` — a
SHA-256 of the grid's canonical identity (axes + seeds + engine/fault
knobs) — so re-ingesting the same grid is a **no-op** (no file is
rewritten; mtimes do not move), and ingesting a *partial* grid (one
shard, an interrupted run) fills in per cell on resume: rows already
present are kept, new cells slot into grid order, and the manifest
tracks completeness against the spec's expected cell count.

Reads follow :mod:`repro.sweep.persist`'s two policies.  The *source*
file of an ingest may be a live shard: *resume* (a torn tail is dropped
and counted), with its rows still held to the persisted invariants.  The
store's own files are written atomically, so a damaged one is never a
write in progress: ``rows.jsonl`` is read under *verify* and against the
manifest's row count, and damage is a :class:`ResultsError` naming the file.

Every read streams.  An ingest holds, per cell, its index and its line
text, never a decoded row: it reads ``rows.jsonl`` once, keeping each
stored line's text, and reads the source with those texts as its
``known`` map (:func:`repro.sweep.persist._decode`), so a source line
equal to a stored line is not parsed, placed or encoded.  A new row is
kept as its canonical text, and ``rows.jsonl`` is rewritten line by line
in grid order, stored lines copied as they were read.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from repro.errors import ResultsError
from repro.sweep import persist
from repro.sweep.spec import SweepSpec
from repro.sweep.stats import MidpointCounts

__all__ = ["IngestReport", "ResultsStore", "finished_rows", "sketching"]


@dataclass(frozen=True)
class IngestReport:
    """Outcome of one :meth:`ResultsStore.ingest` call."""

    spec_hash: str
    name: str
    new_rows: int
    total_rows: int
    expected_cells: int
    #: Torn trailing lines the resume-policy read of the source dropped.
    damaged_skipped: int
    #: True when any store file was (re)written by this ingest.
    updated: bool

    @property
    def complete(self) -> bool:
        """Every cell of the grid is ingested."""
        return self.total_rows == self.expected_cells

    def summary(self) -> str:
        """One human-readable status line."""
        state = "complete" if self.complete else "partial"
        damaged = (
            f", {self.damaged_skipped} damaged line(s) skipped"
            if self.damaged_skipped
            else ""
        )
        return (
            f"{self.name} [{self.spec_hash[:12]}]: {self.new_rows} new "
            f"row(s), {self.total_rows}/{self.expected_cells} cells "
            f"({state}){damaged}"
        )


def _refusing(verify: Callable[..., Iterator[dict[str, Any]]], *args: Any, **kwargs: Any):
    """Rows of ``verify(*args, report, **kwargs)``; its first report is raised."""
    problems: list[str] = []
    for row in verify(*args, problems.append, **kwargs):
        if problems:
            break
        yield row
    if problems:
        raise ResultsError("; ".join(problems))


def finished_rows(
    path: str, known: persist.Known | None = None
) -> Iterator[dict[str, Any]]:
    """Stream a finished sweep file; anything *verify* reports is an error
    (``known`` as in :func:`repro.sweep.persist._decode`)."""
    return _refusing(persist.iter_verified_rows, path, known=known)


def sketching(
    rows: Iterable[dict[str, Any]], grid: MidpointCounts
) -> Iterator[dict[str, Any]]:
    """Pass ``rows`` through, folding each one's persisted ``latency_hist``
    / ``latency_max`` columns into ``grid``; rows without them (e.g.
    directory cells) add nothing."""
    for row in rows:
        hist = row.get("latency_hist")
        hi = row.get("latency_max")
        if isinstance(hist, list) and isinstance(hi, (int, float)):
            grid.add_histogram(hist, float(hi))
        yield row


def _same_row(stored: str, line: str) -> bool:
    """A stored line of other formatting is still the canonical ``line``'s row."""
    return persist.dumps_row(json.loads(stored)) == line


#: What a source line equal to a stored line reads as: the stored row,
#: verified and placed already, which an ingest skips (never mutated).
_STORED: dict[str, Any] = {}


def _atomic_write(path: str, lines: Iterable[str]) -> None:
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_if_changed(path: str, text: str) -> bool:
    """Atomic write that leaves an identical file untouched (idempotence).
    Bytes are compared, so a damaged file (not UTF-8, say) is rewritten
    like any other that differs."""
    data = text.encode("utf-8")
    if os.path.exists(path):
        with open(path, "rb") as fh:
            if fh.read() == data:
                return False
    _atomic_write(path, [text])
    return True


class ResultsStore:
    """A directory of content-addressed sweep runs."""

    def __init__(self, root: str):
        self.root = root

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def _runs_dir(self) -> str:
        return os.path.join(self.root, "runs")

    def run_dir(self, spec_hash: str) -> str:
        return os.path.join(self._runs_dir(), spec_hash)

    def rows_path(self, spec_hash: str) -> str:
        return os.path.join(self.run_dir(spec_hash), "rows.jsonl")

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def ingest(self, spec: SweepSpec, jsonl_path: str) -> IngestReport:
        """Ingest a sweep JSONL file (merged, shard, or partial) for ``spec``.

        Incremental and idempotent: rows are keyed by ``cell_id`` within
        the spec-hash entry, re-ingesting already-stored cells changes
        nothing (not even an mtime), and cells missing from a partial
        file fill in on a later ingest.  Every source row must belong to
        the grid and satisfy the persisted row invariants — a foreign
        ``cell_id``, a mismatched ``index``, a false ``exclusion_ok`` or
        two conflicting versions of one cell raise :class:`ResultsError`
        rather than silently polluting the entry, and so does any damage
        to the rows already stored.  A row is placed by its id alone
        (:meth:`SweepSpec.cell_ids`): an ingest builds no cell.
        """
        spec_hash = spec.spec_hash()
        cells = {cid: i for i, cid in enumerate(spec.cell_ids())}
        expected = len(cells)

        def place(row: dict[str, Any], path: str) -> int:
            cid = row.get("cell_id")
            if not isinstance(cid, str) or cid not in cells:
                raise ResultsError(
                    f"{path}: row with cell_id {cid!r} does not "
                    f"belong to grid {spec.name!r} [{spec_hash[:12]}]; "
                    "is this file from a different spec?"
                )
            if row.get("index") != cells[cid]:
                raise ResultsError(
                    f"{path}: cell {cid!r} carries index "
                    f"{row.get('index')!r} but the grid places it at "
                    f"{cells[cid]}; file and spec disagree"
                )
            return cells[cid]

        lines: list[str | None] = [None] * expected  # index -> line text
        rows_path = self.rows_path(spec_hash)
        if os.path.exists(rows_path):
            for text, row in _refusing(persist.iter_verified_lines, rows_path):
                lines[place(row, rows_path)] = text
        known = dict.fromkeys(filter(None, lines), _STORED)
        stored_rows = len(known)

        skipped: list[str] = []
        source = persist.iter_rows(jsonl_path, skipped=skipped, known=known)
        new_rows = 0
        for row in _refusing(persist.verify_rows, source, jsonl_path):
            if row is _STORED:
                continue
            index = place(row, jsonl_path)
            line = persist.dumps_row(row)  # a new row is stored canonically
            if (old := lines[index]) is None:
                lines[index] = line
                new_rows += 1
            elif old != line and not _same_row(old, line):
                raise ResultsError(
                    f"{jsonl_path}: cell {row['cell_id']!r} conflicts with the "
                    f"already-stored row under [{spec_hash[:12]}]: columns differ: "
                    f"{persist.differing_columns(json.loads(old), row)}"
                )
        total_rows = stored_rows + new_rows

        updated = False
        if new_rows:
            os.makedirs(self.run_dir(spec_hash), exist_ok=True)
            _atomic_write(rows_path, (text + "\n" for text in lines if text is not None))
            updated = True
        if total_rows:
            os.makedirs(self.run_dir(spec_hash), exist_ok=True)
            updated |= _write_if_changed(
                os.path.join(self.run_dir(spec_hash), "spec.json"),
                json.dumps(
                    {"spec_hash": spec_hash, "spec": spec.canonical()},
                    indent=2,
                    sort_keys=True,
                )
                + "\n",
            )
            updated |= _write_if_changed(
                os.path.join(self.run_dir(spec_hash), "manifest.json"),
                json.dumps(
                    {
                        "spec_hash": spec_hash,
                        "name": spec.name,
                        "cells": expected,
                        "ingested": total_rows,
                        "complete": total_rows == expected,
                    },
                    indent=2,
                    sort_keys=True,
                )
                + "\n",
            )
        return IngestReport(
            spec_hash=spec_hash,
            name=spec.name,
            new_rows=new_rows,
            total_rows=total_rows,
            expected_cells=expected,
            damaged_skipped=len(skipped),
            updated=updated,
        )

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def list_runs(self) -> list[dict[str, Any]]:
        """Manifests of every stored run, sorted by (name, hash)."""
        runs_dir = self._runs_dir()
        out: list[dict[str, Any]] = []
        if not os.path.isdir(runs_dir):
            return out
        for entry in sorted(os.listdir(runs_dir)):
            path = os.path.join(runs_dir, entry, "manifest.json")
            if not os.path.exists(path):
                continue
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    manifest = json.load(fh)
            except ValueError:  # truncated, not JSON, not UTF-8
                manifest = None
            if (
                not isinstance(manifest, dict)
                or manifest.get("spec_hash") != entry
                or not isinstance(manifest.get("name"), str)
            ):
                raise ResultsError(
                    f"{path}: damaged manifest (not the named manifest of "
                    f"run {entry}); re-ingest the run's source files"
                )
            out.append(manifest)
        out.sort(key=lambda m: (m["name"], m["spec_hash"]))
        return out

    def manifest(self, key: str) -> dict[str, Any]:
        """Manifest of the run ``key`` names: a full hash, a unique hash
        prefix, or a grid name."""
        runs = self.list_runs()
        matches = [
            m for m in runs if m["spec_hash"].startswith(key) or m["name"] == key
        ]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            known = ", ".join(f"{m['name']}[{m['spec_hash'][:12]}]" for m in runs)
            raise ResultsError(
                f"no stored run matches {key!r} in {self.root} "
                f"(have: {known or 'none'})"
            )
        raise ResultsError(
            f"{key!r} is ambiguous in {self.root}: matches "
            f"{[m['spec_hash'][:12] for m in matches]}; use a longer hash prefix"
        )

    def rows(
        self, key: str, known: persist.Known | None = None
    ) -> Iterator[dict[str, Any]]:
        """Stream the stored rows of one run in grid order: the file must
        verify and hold exactly the manifest's ``ingested`` rows, so a
        figure is never built from fewer rows than were ingested
        (``known`` as in :func:`repro.sweep.persist._decode`; a read
        learns each row it parses)."""
        manifest = self.manifest(key)
        path = self.rows_path(manifest["spec_hash"])
        if not os.path.exists(path):
            raise ResultsError(f"{path}: stored run has no rows yet")
        count = 0
        for count, row in enumerate(finished_rows(path, known), 1):
            yield row
        if count != manifest.get("ingested"):
            raise ResultsError(
                f"{path}: holds {count} row(s) but manifest.json records "
                f"{manifest.get('ingested')}; re-ingest the run"
            )

    # ------------------------------------------------------------------
    # grid-level aggregation
    # ------------------------------------------------------------------
    def grid_sketch(self, key: str) -> MidpointCounts:
        """Latency percentiles of one stored run, from its rows' histograms:
        one streaming pass of :meth:`rows` through :func:`sketching`,
        holding a dict entry per distinct bucket midpoint."""
        grid = MidpointCounts()
        for _ in sketching(self.rows(key), grid):
            pass
        return grid
