"""Correctness oracle: a simulator speed-up must leave every row identical.

After a pipeline child exits (outside the timed region) each grid it
produced is checked three ways:

* every cell of the grid has exactly one stored row, in grid order;
* ``sweep-verify``'s checks (``persist.diff_rows``: row equality plus the
  latency-histogram invariants) between the raw sweep file and the
  store, and ``results compare --max-delta-pct 0`` between the two;
* at the default seed and scale, the cell count, the summed ``requests``
  column and the SHA-256 of the stored rows (``engine`` column dropped —
  engines are interchangeable) equal the committed ``expected.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ReproError
from repro.results import ResultsStore, compare_rows
from repro.sweep import persist

from workloads import STORE, Plan

__all__ = ["EXPECTED_PATH", "Verdict", "check_plan", "load_expected",
           "output_digest"]

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")
#: ``expected.json`` holds digests for exactly this seed and scale.
EXPECTED_SEED, EXPECTED_SCALE = 0, 1.0


@dataclass
class Verdict:
    """What one pipeline run produced and how much of it is wrong."""

    cells: int = 0
    failed: int = 0
    requests: int = 0
    rows: int = 0
    sha256: str = ""
    problems: list[str] = field(default_factory=list)

    def fingerprint(self) -> dict[str, Any]:
        """The part of a verdict ``expected.json`` pins."""
        return {"cells": self.cells, "requests": self.requests,
                "sha256": self.sha256}


def load_expected(workload: str, seed: int, scale: float) -> dict | None:
    """The committed fingerprint, or ``None`` off the default seed/scale."""
    if (seed, scale) != (EXPECTED_SEED, EXPECTED_SCALE):
        return None
    with open(EXPECTED_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(workload)


def output_digest(plan: Plan, workdir: str) -> str:
    """SHA-256 over the bytes of every raw and stored rows file of a run.

    Repeats of a deterministic pipeline leave identical bytes, and
    identical bytes get an identical verdict — so the harness runs the
    full :func:`check_plan` once per distinct digest, not once per repeat.
    """
    digest = hashlib.sha256()
    store = ResultsStore(os.path.join(workdir, STORE))
    for grid in plan.grids:
        for path in (os.path.join(workdir, grid.out),
                     store.rows_path(grid.spec.spec_hash())):
            try:
                with open(path, "rb") as fh:
                    digest.update(fh.read())
            except OSError:
                digest.update(b"<unreadable>")
            digest.update(b"\0")
    return digest.hexdigest()


def check_plan(plan: Plan, workdir: str, expected: dict | None) -> Verdict:
    """Verify every grid ``plan`` left in ``workdir``; never raises on
    damaged output — damage is counted as failed cells."""
    verdict = Verdict()
    digest = hashlib.sha256()
    store = ResultsStore(os.path.join(workdir, STORE))
    for grid in plan.grids:
        wanted = [c.cell_id for c in grid.spec.cells()]
        verdict.cells += len(wanted)
        raw = os.path.join(workdir, grid.out)
        stored = store.rows_path(grid.spec.spec_hash())
        problems: list[str] = []
        try:
            rows = list(persist.iter_rows(stored))
            _, problems = persist.diff_rows(raw, stored,
                                            expect_cells=len(wanted))
            delta = compare_rows(rows, persist.iter_rows(raw),
                                 max_delta_pct=0.0)
            problems += delta.problems + delta.exceeding
        except (OSError, ReproError) as exc:
            verdict.failed += len(wanted)
            verdict.problems.append(f"{grid.spec.name}: unreadable output: {exc}")
            continue
        found = [r.get("cell_id") for r in rows]
        missing = len(set(wanted) - set(found))
        if found != wanted:
            problems.append(
                f"{grid.spec.name}: stored cell ids differ from the grid "
                f"({missing} missing)"
            )
        verdict.failed += min(len(wanted), max(len(problems), missing))
        verdict.problems += problems[:10]
        verdict.rows += len(rows)
        verdict.requests += sum(r.get("requests", 0) for r in rows)
        for row in rows:
            row.pop("engine", None)
            digest.update(persist.dumps_row(row).encode("utf-8") + b"\n")
    verdict.sha256 = digest.hexdigest()
    if expected is not None and verdict.fingerprint() != expected:
        verdict.failed = verdict.cells
        verdict.problems.append(
            f"rows differ from expected.json: got {verdict.fingerprint()}, "
            f"expected {expected}"
        )
    return verdict
