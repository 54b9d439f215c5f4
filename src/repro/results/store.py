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
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import ResultsError
from repro.sweep import persist
from repro.sweep.spec import SweepSpec
from repro.sweep.stats import MidpointCounts

__all__ = ["IngestReport", "ResultsStore"]


@dataclass(frozen=True)
class IngestReport:
    """Outcome of one :meth:`ResultsStore.ingest` call."""

    spec_hash: str
    name: str
    new_rows: int
    total_rows: int
    expected_cells: int
    #: Damaged JSONL lines the lenient source parse dropped (torn tails).
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


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_if_changed(path: str, text: str) -> bool:
    """Atomic write that leaves an identical file untouched (idempotence)."""
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            if fh.read() == text:
                return False
    _atomic_write(path, text)
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
        the grid — a foreign ``cell_id``, a mismatched ``index`` or two
        conflicting versions of one cell raise :class:`ResultsError`
        rather than silently polluting the entry.
        """
        spec_hash = spec.spec_hash()
        cells = {c.cell_id: c.index for c in spec.cells()}
        expected = len(cells)

        stored: dict[int, str] = {}  # index -> canonical line
        rows_path = self.rows_path(spec_hash)
        if os.path.exists(rows_path):
            for row in persist.iter_rows(rows_path):
                stored[row["index"]] = persist.dumps_row(row)

        skipped: list[str] = []
        new_rows = 0
        for row in persist.iter_rows(jsonl_path, skipped=skipped):
            cid = row.get("cell_id")
            if not isinstance(cid, str) or cid not in cells:
                raise ResultsError(
                    f"{jsonl_path}: row with cell_id {cid!r} does not "
                    f"belong to grid {spec.name!r} [{spec_hash[:12]}]; "
                    "is this file from a different spec?"
                )
            index = cells[cid]
            if row.get("index") != index:
                raise ResultsError(
                    f"{jsonl_path}: cell {cid!r} carries index "
                    f"{row.get('index')!r} but the grid places it at "
                    f"{index}; file and spec disagree"
                )
            line = persist.dumps_row(row)
            if index in stored:
                if stored[index] != line:
                    raise ResultsError(
                        f"{jsonl_path}: cell {cid!r} conflicts with the "
                        f"already-stored row under [{spec_hash[:12]}] "
                        "(same grid, different content — engines are "
                        "bit-identical, so this means damaged input)"
                    )
                continue
            stored[index] = line
            new_rows += 1

        updated = False
        if new_rows:
            os.makedirs(self.run_dir(spec_hash), exist_ok=True)
            text = "".join(
                stored[i] + "\n" for i in sorted(stored)
            )
            _atomic_write(rows_path, text)
            updated = True
        if stored or new_rows:
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
                        "ingested": len(stored),
                        "complete": len(stored) == expected,
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
            total_rows=len(stored),
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
            manifest = os.path.join(runs_dir, entry, "manifest.json")
            if os.path.exists(manifest):
                with open(manifest, "r", encoding="utf-8") as fh:
                    out.append(json.load(fh))
        out.sort(key=lambda m: (m.get("name", ""), m.get("spec_hash", "")))
        return out

    def resolve(self, key: str) -> str:
        """Resolve a run key — full hash, unique hash prefix, or grid name."""
        runs = self.list_runs()
        matches = [
            m["spec_hash"]
            for m in runs
            if m["spec_hash"].startswith(key) or m.get("name") == key
        ]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            known = ", ".join(
                f"{m.get('name')}[{m['spec_hash'][:12]}]" for m in runs
            )
            raise ResultsError(
                f"no stored run matches {key!r} in {self.root} "
                f"(have: {known or 'none'})"
            )
        raise ResultsError(
            f"{key!r} is ambiguous in {self.root}: matches "
            f"{[m[:12] for m in matches]}; use a longer hash prefix"
        )

    def manifest(self, key: str) -> dict[str, Any]:
        """Manifest of one stored run (key resolved via :meth:`resolve`)."""
        spec_hash = self.resolve(key)
        with open(
            os.path.join(self.run_dir(spec_hash), "manifest.json"),
            "r",
            encoding="utf-8",
        ) as fh:
            return json.load(fh)

    def rows(self, key: str) -> Iterator[dict[str, Any]]:
        """Stream the stored rows of one run in grid order."""
        spec_hash = self.resolve(key)
        path = self.rows_path(spec_hash)
        if not os.path.exists(path):
            raise ResultsError(f"{path}: stored run has no rows yet")
        yield from persist.iter_rows(path)

    # ------------------------------------------------------------------
    # grid-level aggregation
    # ------------------------------------------------------------------
    def grid_sketch(self, key: str) -> MidpointCounts:
        """Latency percentiles of one stored run, from its rows' histograms.

        One streaming pass: each row's persisted ``latency_hist`` /
        ``latency_max`` columns are added to one
        :class:`~repro.sweep.stats.MidpointCounts`, which holds a dict
        entry per distinct bucket midpoint.  Rows without histogram
        columns (e.g. directory cells) are skipped.
        """
        grid = MidpointCounts()
        for row in self.rows(key):
            hist = row.get("latency_hist")
            hi = row.get("latency_max")
            if isinstance(hist, list) and isinstance(hi, (int, float)):
                grid.add_histogram(hist, float(hi))
        return grid
