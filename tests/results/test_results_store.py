"""The content-addressed results store (``repro.results.store``).

The store's contracts are all about *not* doing work twice and *never*
accepting wrong data: re-ingesting an already-stored file is a no-op
down to the mtime, a partial grid fills in per cell on later ingests,
and rows that don't belong to the spec (foreign cell, shifted index,
conflicting content) are rejected loudly.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import ResultsError
from repro.results import ResultsStore
from repro.sweep import run_sweep, smoke_grid
from repro.sweep.persist import dumps_row, iter_rows
from repro.sweep.spec import SweepSpec


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """One real smoke sweep shared by the module's tests (read-only)."""
    root = tmp_path_factory.mktemp("smoke-run")
    spec = smoke_grid()
    path = root / "smoke.jsonl"
    run_sweep(spec, str(path))
    return spec, str(path), list(iter_rows(str(path)))


def test_ingest_roundtrip_and_manifest(tmp_path, smoke_run):
    spec, path, rows = smoke_run
    store = ResultsStore(str(tmp_path / "store"))
    report = store.ingest(spec, path)
    assert report.new_rows == len(rows) == report.total_rows
    assert report.complete and report.updated
    assert report.damaged_skipped == 0
    assert list(store.rows(spec.spec_hash())) == rows
    manifest = store.manifest("smoke")
    assert manifest["spec_hash"] == spec.spec_hash()
    assert manifest["complete"] is True
    assert manifest["cells"] == len(rows)


def test_reingest_is_a_no_op_down_to_the_mtime(tmp_path, smoke_run):
    spec, path, rows = smoke_run
    store = ResultsStore(str(tmp_path / "store"))
    store.ingest(spec, path)
    run_files = {
        p: os.path.getmtime(p)
        for p in (
            store.rows_path(spec.spec_hash()),
            os.path.join(store.run_dir(spec.spec_hash()), "spec.json"),
            os.path.join(store.run_dir(spec.spec_hash()), "manifest.json"),
        )
    }
    contents = {p: open(p, encoding="utf-8").read() for p in run_files}
    os.utime(path)  # touching the *source* must not matter
    report = store.ingest(spec, path)
    assert report.new_rows == 0 and not report.updated
    for p, mtime in run_files.items():
        assert os.path.getmtime(p) == mtime, f"{p} was rewritten"
        assert open(p, encoding="utf-8").read() == contents[p]


def test_partial_grid_fills_in_per_cell(tmp_path, smoke_run):
    spec, _, rows = smoke_run
    store = ResultsStore(str(tmp_path / "store"))
    first = tmp_path / "first.jsonl"
    rest = tmp_path / "rest.jsonl"
    first.write_text("".join(dumps_row(r) + "\n" for r in rows[:1]))
    rest.write_text("".join(dumps_row(r) + "\n" for r in rows[1:]))

    r1 = store.ingest(spec, str(first))
    assert r1.new_rows == 1 and not r1.complete
    assert store.manifest("smoke")["complete"] is False

    r2 = store.ingest(spec, str(rest))
    assert r2.new_rows == len(rows) - 1 and r2.complete
    # Rows land back in grid order regardless of ingest order.
    assert list(store.rows("smoke")) == rows


def test_foreign_cell_id_is_rejected(tmp_path, smoke_run):
    spec, _, rows = smoke_run
    store = ResultsStore(str(tmp_path / "store"))
    bad = dict(rows[0], cell_id="not-in-this-grid")
    src = tmp_path / "bad.jsonl"
    src.write_text(dumps_row(bad) + "\n")
    with pytest.raises(ResultsError) as err:
        store.ingest(spec, str(src))
    assert str(err.value) == (
        f"{src}: row with cell_id 'not-in-this-grid' does not belong to grid "
        f"'smoke' [{spec.spec_hash()[:12]}]; is this file from a different spec?"
    )


def test_index_mismatch_is_rejected(tmp_path, smoke_run):
    spec, _, rows = smoke_run
    store = ResultsStore(str(tmp_path / "store"))
    bad = dict(rows[0], index=rows[0]["index"] + 1)
    src = tmp_path / "bad.jsonl"
    src.write_text(dumps_row(bad) + "\n")
    with pytest.raises(ResultsError) as err:
        store.ingest(spec, str(src))
    assert str(err.value) == (
        f"{src}: cell {rows[0]['cell_id']!r} carries index 1 but the grid "
        "places it at 0; file and spec disagree"
    )


def test_an_ingest_places_rows_by_id_and_builds_no_cell(tmp_path, smoke_run, monkeypatch):
    """``SweepSpec.cell_ids`` places every row; the grid is never
    expanded into :class:`~repro.sweep.spec.SweepCell` objects."""
    spec, path, rows = smoke_run

    def no_cells(self):
        raise AssertionError("an ingest expanded the grid into cells")

    monkeypatch.setattr(SweepSpec, "cells", no_cells)
    store = ResultsStore(str(tmp_path / "store"))
    report = store.ingest(spec, path)
    assert report.new_rows == len(rows) and report.complete
    assert store.ingest(spec, path).new_rows == 0
    assert list(store.rows("smoke")) == rows


def test_conflicting_cell_content_is_rejected(tmp_path, smoke_run):
    spec, path, rows = smoke_run
    store = ResultsStore(str(tmp_path / "store"))
    store.ingest(spec, path)
    tampered = dict(rows[0], makespan=rows[0].get("makespan", 0.0) + 1.0)
    src = tmp_path / "tampered.jsonl"
    src.write_text(dumps_row(tampered) + "\n")
    with pytest.raises(ResultsError, match="conflicts with the"):
        store.ingest(spec, str(src))


def test_damaged_tail_is_counted_not_fatal(tmp_path, smoke_run):
    spec, _, rows = smoke_run
    store = ResultsStore(str(tmp_path / "store"))
    src = tmp_path / "torn.jsonl"
    src.write_text(
        "".join(dumps_row(r) + "\n" for r in rows) + '{"cell_id": "tor'
    )
    report = store.ingest(spec, str(src))
    assert report.damaged_skipped == 1
    assert report.complete
    assert "1 damaged line(s) skipped" in report.summary()


def test_resolve_by_hash_prefix_name_and_failures(tmp_path, smoke_run):
    spec, path, _ = smoke_run
    store = ResultsStore(str(tmp_path / "store"))
    store.ingest(spec, path)
    full = spec.spec_hash()
    for key in (full, full[:8], "smoke"):
        assert store.manifest(key)["spec_hash"] == full
    with pytest.raises(ResultsError, match="no stored run matches"):
        store.manifest("fig10")
    with pytest.raises(ResultsError, match="no stored run matches"):
        ResultsStore(str(tmp_path / "empty")).manifest("smoke")


def test_grid_sketch_merges_all_row_histograms(tmp_path, smoke_run):
    spec, path, rows = smoke_run
    store = ResultsStore(str(tmp_path / "store"))
    store.ingest(spec, path)
    grid = store.grid_sketch("smoke")
    expected = sum(
        sum(r["latency_hist"]) for r in rows if "latency_hist" in r
    )
    assert grid.count == expected
    assert grid.max_value() == max(r["latency_max"] for r in rows)
    assert 0.0 < grid.quantile(50) <= grid.quantile(99) <= grid.max_value()


def test_spec_hash_is_stable_and_sensitive(smoke_run):
    spec, _, _ = smoke_run
    assert spec.spec_hash() == smoke_grid().spec_hash()
    assert spec.spec_hash() != smoke_grid(seeds=(0, 1, 2)).spec_hash()
    assert spec.spec_hash() != smoke_grid(engine="message").spec_hash()
    doc = json.dumps(spec.canonical())
    assert "monitor" not in doc  # monitors never change rows
