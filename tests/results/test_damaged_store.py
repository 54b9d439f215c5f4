"""A damaged results store: a named ``ResultsError``, never a traceback,
never a figure built from fewer rows than were ingested.

The store writes its three files atomically, so a damaged stored file is
never a write in progress — the store's own ``rows.jsonl`` is read under
the *verify* policy and against the manifest's row count, and ``ingest``
holds source rows to the persisted row invariants.  The golden 4-row
smoke run is truncated at every byte offset of each stored file; the
named cases are the defects this module was written against.
"""

import os
import shutil

import pytest

from repro.cli import main
from repro.errors import ReproError, ResultsError
from repro.experiments import format_table
from repro.results import ResultsStore, figure_from_rows
from repro.sweep import directory_grid, run_sweep, smoke_grid
from repro.sweep.persist import dumps_row, iter_rows

GOLDEN = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "golden",
    "results_store",
)


@pytest.fixture
def stored(tmp_path):
    """A private copy of the golden store, and the paths of its one run."""
    root = tmp_path / "store"
    shutil.copytree(GOLDEN, root)
    (run_dir,) = (root / "runs").iterdir()
    return ResultsStore(str(root)), run_dir


def table(store: ResultsStore) -> str:
    manifest = store.manifest("smoke")
    return format_table(figure_from_rows(manifest["name"], store.rows("smoke")))


def test_truncating_any_stored_file_at_any_byte_is_clean_or_named(stored, tmp_path):
    store, run_dir = stored
    spec = smoke_grid()
    source = tmp_path / "smoke.jsonl"
    shutil.copy(run_dir / "rows.jsonl", source)
    clean = {name: (run_dir / name).read_bytes()
             for name in ("rows.jsonl", "manifest.json", "spec.json")}
    clean_list, clean_table = store.list_runs(), table(store)

    refused = 0
    for name, data in clean.items():
        for offset in range(len(data)):
            for other, other_data in clean.items():
                (run_dir / other).write_bytes(other_data)
            (run_dir / name).write_bytes(data[:offset])
            where = f"{name}@{offset}"

            for read, expected in ((store.list_runs, clean_list),
                                   (lambda: table(store), clean_table)):
                try:
                    assert read() == expected, where
                except ReproError as exc:
                    assert isinstance(exc, ResultsError), where
                    assert name in str(exc), where
                    refused += 1

            try:
                report = store.ingest(spec, str(source))
            except ReproError as exc:
                assert isinstance(exc, ResultsError) and name in str(exc), where
                refused += 1
            else:
                assert report.complete, where
                for other, other_data in clean.items():
                    # (A rows.jsonl missing only its last newline holds every
                    # row; nothing is new, so ingest leaves the file alone.)
                    assert (run_dir / other).read_bytes() in (
                        other_data, other_data.rstrip(b"\n")), where
    # The property is not vacuous: most cuts of rows.jsonl and of the
    # manifest are refused by at least one reader.
    assert refused > len(clean["rows.jsonl"]) + len(clean["manifest.json"])


def results(capsys, store: ResultsStore, *argv: str) -> str:
    """Run ``results ...`` expecting exit 1; return its stderr."""
    capsys.readouterr()
    assert main(["results", *argv, "--store", store.root]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.out == ""
    return captured.err


def test_stored_row_without_index_is_named(stored, capsys, tmp_path):
    store, run_dir = stored
    source = tmp_path / "smoke.jsonl"
    shutil.copy(run_dir / "rows.jsonl", source)
    rows = list(iter_rows(str(source)))
    del rows[2]["index"]
    (run_dir / "rows.jsonl").write_text("".join(dumps_row(r) + "\n" for r in rows))
    err = results(capsys, store, "ingest", str(source), "--grid", "smoke")
    assert "rows.jsonl" in err and "carries index None" in err


@pytest.mark.parametrize(
    "text",
    ["[1, 2]", '{"name": "smoke", "cells": 4}', '{"spec_hash": "', ""],
    ids=["not-an-object", "no-spec-hash", "truncated", "empty"],
)
def test_damaged_manifest_is_named(stored, capsys, text):
    store, run_dir = stored
    (run_dir / "manifest.json").write_text(text)
    for argv in (["list"], ["table", "smoke"], ["plot", "smoke"],
                 ["compare", "--a", "smoke", "--b", "smoke"]):
        err = results(capsys, store, *argv)
        assert "manifest.json: damaged manifest" in err


def test_torn_stored_rows_are_not_a_three_row_table(stored, capsys):
    store, run_dir = stored
    data = (run_dir / "rows.jsonl").read_bytes()
    (run_dir / "rows.jsonl").write_bytes(data[:-40])
    err = results(capsys, store, "table", "smoke")
    assert "rows.jsonl:4: corrupt JSONL row" in err
    # Cut exactly between rows there is no damaged line to find; the
    # manifest's row count is what refuses the shorter table.
    (run_dir / "rows.jsonl").write_bytes(data[: data.rindex(b"\n", 0, -1) + 1])
    err = results(capsys, store, "table", "smoke")
    assert "holds 3 row(s) but manifest.json records 4" in err


def test_a_row_that_breaks_a_persisted_invariant_is_never_stored(tmp_path, capsys):
    spec = directory_grid(sizes=(2,), acquisitions_per_proc=3)
    source = tmp_path / "directory.jsonl"
    run_sweep(spec, str(source))
    rows = list(iter_rows(str(source)))
    rows[1]["exclusion_ok"] = False
    source.write_text("".join(dumps_row(r) + "\n" for r in rows))
    store = ResultsStore(str(tmp_path / "store"))
    grid = ["--grid", "directory", "--sizes", "2", "--acquisitions-per-proc", "3"]
    err = results(capsys, store, "ingest", str(source), *grid)
    assert f"{source} row 1: exclusion_ok is false" in err
    assert not os.path.exists(store.root)

    # ... and one that was stored by an older build is refused on the way out.
    rows[1]["exclusion_ok"] = True
    source.write_text("".join(dumps_row(r) + "\n" for r in rows))
    assert main(["results", "ingest", str(source), "--store", store.root, *grid]) == 0
    rows_path = store.rows_path(spec.spec_hash())
    with open(rows_path, encoding="utf-8") as fh:
        text = fh.read()
    with open(rows_path, "w", encoding="utf-8") as fh:
        fh.write(text.replace('"exclusion_ok":true', '"exclusion_ok":false', 1))
    err = results(capsys, store, "table", "directory")
    assert "rows.jsonl row 0: exclusion_ok is false" in err


def test_a_histogram_that_miscounts_is_refused_by_ingest(tmp_path):
    spec = smoke_grid()
    source = tmp_path / "smoke.jsonl"
    run_sweep(spec, str(source))
    rows = list(iter_rows(str(source)))
    rows[3]["latency_hist"][0] += 1
    source.write_text("".join(dumps_row(r) + "\n" for r in rows))
    with pytest.raises(ResultsError, match="row 3: latency_hist counts"):
        ResultsStore(str(tmp_path / "store")).ingest(spec, str(source))


def test_a_stored_byte_that_is_not_utf8_is_named(stored, capsys):
    store, run_dir = stored
    data = (run_dir / "rows.jsonl").read_bytes()
    (run_dir / "rows.jsonl").write_bytes(data[:50] + b"\xff" + data[51:])
    for argv in (["table", "smoke", "--percentiles"], ["plot", "smoke"],
                 ["compare", "--a", "smoke", "--b", "smoke"]):
        err = results(capsys, store, *argv)
        assert "rows.jsonl:1: corrupt JSONL row (not UTF-8)" in err
        assert "UnicodeDecodeError" not in err


@pytest.mark.parametrize("name", ["spec.json", "manifest.json"])
def test_reingest_heals_a_damaged_spec_or_manifest(stored, capsys, tmp_path, name):
    """``table`` says to re-ingest; a re-ingest rewrites a file that is not
    UTF-8 like any file that differs, and the run reads back."""
    store, run_dir = stored
    source = tmp_path / "smoke.jsonl"
    shutil.copy(run_dir / "rows.jsonl", source)
    clean = {n: (run_dir / n).read_bytes() for n in ("rows.jsonl", "spec.json", "manifest.json")}
    capsys.readouterr()
    assert main(["results", "table", "smoke", "--store", store.root]) == 0
    expected = capsys.readouterr().out

    (run_dir / name).write_bytes(b"\xff\xfe garbage")
    if name == "manifest.json":
        assert "re-ingest the run's source files" in results(capsys, store, "table", "smoke")
    assert main(["results", "ingest", str(source), "--store", store.root,
                 "--grid", "smoke"]) == 0
    assert {n: (run_dir / n).read_bytes() for n in clean} == clean
    capsys.readouterr()
    assert main(["results", "table", "smoke", "--store", store.root]) == 0
    assert capsys.readouterr().out == expected
