"""One parse per distinct row text, and the fallbacks when texts differ.

Rows are written canonically, so a line equal to one a command has
already read is that row: ingest, ``results compare``, ``sweep-verify``
and ``results table --percentiles`` parse it once.  A line with other
text — keys reordered, spaces added, a value changed — is parsed and
compared as before, and every report keeps its row and line numbers.
"""

from __future__ import annotations

import json
import os
import re
import types

import pytest

from repro.cli import main
from repro.errors import ReproError, ResultsError
from repro.results import ResultsStore, compare_rows
from repro.sweep import persist, run_sweep, smoke_grid
from repro.sweep.persist import diff_rows, dumps_row, iter_rows


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    root = tmp_path_factory.mktemp("one-parse")
    spec = smoke_grid()
    path = str(root / "smoke.jsonl")
    run_sweep(spec, path)
    return spec, path, list(iter_rows(path))


@pytest.fixture
def parses(monkeypatch):
    """Count ``persist``'s row parses (its decoder) and row encodings (its
    encoder, behind ``dumps_row``)."""
    calls = {"loads": 0, "dumps": 0}
    decoder, encoder = persist._DECODER, persist._ENCODER

    def raw_decode(text):
        calls["loads"] += 1
        return decoder.raw_decode(text)

    def encode(row):
        calls["dumps"] += 1
        return encoder.encode(row)

    monkeypatch.setattr(persist, "_DECODER", types.SimpleNamespace(raw_decode=raw_decode))
    monkeypatch.setattr(persist, "_ENCODER", types.SimpleNamespace(encode=encode))
    return calls


def reformatted(row) -> str:
    """The same row as other text: keys reversed, spaces after separators."""
    return json.dumps(dict(reversed(list(row.items()))), separators=(", ", ": "))


def write(path, lines) -> str:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


def stored(tmp_path, smoke) -> ResultsStore:
    spec, path, _ = smoke
    store = ResultsStore(str(tmp_path / "store"))
    store.ingest(spec, path)
    return store


def mtimes(store, spec):
    run = store.run_dir(spec.spec_hash())
    return {name: os.path.getmtime(os.path.join(run, name))
            for name in ("rows.jsonl", "spec.json", "manifest.json")}


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------
def test_reingest_parses_the_stored_file_only_and_encodes_nothing(tmp_path, smoke, parses):
    spec, path, rows = smoke
    store = ResultsStore(str(tmp_path / "store"))
    store.ingest(spec, path)
    parses.update(loads=0, dumps=0)
    report = store.ingest(spec, path)
    assert report.new_rows == 0 and not report.updated
    assert parses == {"loads": len(rows), "dumps": 0}


def test_reingesting_a_reformatted_equal_source_is_a_no_op(tmp_path, smoke):
    spec, _, rows = smoke
    store = stored(tmp_path, smoke)
    before = mtimes(store, spec)
    source = write(tmp_path / "reformatted.jsonl", map(reformatted, rows))
    report = store.ingest(spec, source)
    assert (report.new_rows, report.total_rows, report.updated) == (0, len(rows), False)
    assert mtimes(store, spec) == before


def test_a_reformatted_line_with_one_changed_value_conflicts(tmp_path, smoke):
    spec, _, rows = smoke
    store = stored(tmp_path, smoke)
    changed = [dict(r) for r in rows]
    changed[1]["makespan"] *= 1.5
    source = write(tmp_path / "changed.jsonl", map(reformatted, changed))
    with pytest.raises(ResultsError, match=re.escape(
        f"changed.jsonl: cell {rows[1]['cell_id']!r} conflicts with the "
        "already-stored row"
    ) + r".*: columns differ: makespan$"):
        store.ingest(spec, source)


def test_a_stored_row_still_naming_its_engine_conflicts_by_that_column(tmp_path, smoke):
    """A store ingested while rows carried an ``engine`` label still reads;
    a fresh row of the same cell conflicts, and the error names the label."""
    spec, path, rows = smoke
    store = stored(tmp_path, smoke)
    rows_path = store.rows_path(spec.spec_hash())
    lines = [dumps_row(r) for r in rows]
    lines[1] = dumps_row(dict(rows[1], engine="fast"))
    write(tmp_path / "rows.jsonl", lines)
    os.replace(tmp_path / "rows.jsonl", rows_path)
    with pytest.raises(ResultsError, match=re.escape(
        f"cell {rows[1]['cell_id']!r} conflicts with the already-stored row"
    ) + r".*: columns differ: engine$"):
        store.ingest(spec, path)


def test_a_reformatted_stored_line_is_still_its_row(tmp_path, smoke):
    """An ingest keeps stored line text; one of other formatting is parsed
    once more only to tell an equal source row from a conflicting one."""
    spec, path, rows = smoke
    store = stored(tmp_path, smoke)
    rows_path = store.rows_path(spec.spec_hash())
    lines = [dumps_row(r) for r in rows]
    lines[1] = reformatted(rows[1])
    write(tmp_path / "rows.jsonl", lines[:3])
    os.replace(tmp_path / "rows.jsonl", rows_path)
    report = store.ingest(spec, path)
    assert (report.new_rows, report.total_rows) == (1, len(rows))
    with open(rows_path, encoding="utf-8") as fh:  # stored lines copied as read
        assert fh.read().splitlines() == lines
    changed = dict(rows[1], makespan=rows[1]["makespan"] * 1.5)
    source = write(tmp_path / "changed.jsonl", [dumps_row(changed)])
    with pytest.raises(ResultsError, match="conflicts with the already-stored row"):
        store.ingest(spec, source)


def test_new_rows_beside_known_lines_are_stored_canonically(tmp_path, smoke):
    spec, path, rows = smoke
    store = ResultsStore(str(tmp_path / "store"))
    store.ingest(spec, write(tmp_path / "first.jsonl", [dumps_row(rows[0])]))
    mixed = [dumps_row(rows[0]), *map(reformatted, rows[1:])]
    report = store.ingest(spec, write(tmp_path / "mixed.jsonl", mixed))
    assert report.new_rows == len(rows) - 1 and report.complete
    with open(store.rows_path(spec.spec_hash()), encoding="utf-8") as fh, \
            open(path, encoding="utf-8") as canonical:
        assert fh.read() == canonical.read()


def test_a_damaged_row_after_known_rows_keeps_its_row_number(tmp_path, smoke):
    spec, _, rows = smoke
    store = stored(tmp_path, smoke)
    n = len(rows) - 1
    broken = dict(rows[n], latency_hist=rows[n]["latency_hist"] + [0])
    source = write(tmp_path / "tail.jsonl", [*map(dumps_row, rows[:n]), dumps_row(broken)])
    with pytest.raises(ResultsError, match=f"tail.jsonl row {n}: latency_hist has"):
        store.ingest(spec, source)
    torn = write(tmp_path / "torn.jsonl", [*map(dumps_row, rows[:n]), "", "{", "{}"])
    with pytest.raises(ReproError, match=f"torn.jsonl:{n + 2}: corrupt JSONL row mid-file"):
        store.ingest(spec, torn)


# ----------------------------------------------------------------------
# results compare
# ----------------------------------------------------------------------
def compare_cli(store, b, capsys, *flags):
    code = main(["results", "compare", "--store", store.root, "--a", "smoke",
                 "--b", b, *flags])
    return code, capsys.readouterr()


def test_compare_against_its_own_source_parses_one_side(tmp_path, smoke, parses, capsys):
    _, path, rows = smoke
    store = stored(tmp_path, smoke)
    parses.update(loads=0)
    code, out = compare_cli(store, path, capsys, "--max-delta-pct", "0")
    assert code == 0 and parses["loads"] == len(rows)
    lines = out.out.splitlines()
    assert lines[0] == f"compared {len(rows)} cell(s) ({len(rows)} in A, {len(rows)} in B)"
    columns = lines[1:-1]
    assert columns and all(f"identical across {len(rows)} cell(s)" in c for c in columns)
    assert lines[-1] == "results compare OK"


def test_compare_reports_one_changed_value_as_exactly_that_delta(tmp_path, smoke, capsys):
    spec, path, rows = smoke
    store = stored(tmp_path, smoke)
    changed = [dict(r) for r in rows]
    changed[2]["makespan"] *= 1.5
    b = write(tmp_path / "changed.jsonl", [*map(dumps_row, changed[:2]),
                                            reformatted(changed[2]), dumps_row(changed[3])])
    code, out = compare_cli(store, b, capsys)
    assert code == 0
    report = out.out.splitlines()
    expected = compare_rows(store.rows(spec.spec_hash()), iter_rows(b)).report_lines()
    assert report[:-1] == expected
    assert [line for line in report if "changed" in line] == [
        f"  makespan: 1/{len(rows)} cell(s) changed, mean +12.50%, max |50.00|%"
    ]
    cid = rows[2]["cell_id"]
    assert any(line.startswith(f"  {cid}: makespan ") and line.endswith("(+50.00%)")
               for line in report)


def test_one_object_on_both_sides_compares_as_two_parses():
    row = {"cell_id": "c", "index": 0, "x": float("nan"), "y": 2.0, "tag": [1, None]}
    same = compare_rows([row], [row])
    twins = compare_rows([row], [json.loads(json.dumps(row))])
    assert json.dumps(same.to_doc()) == json.dumps(twins.to_doc())
    clean = {"cell_id": "c", "index": 0, "y": 2.0}
    assert compare_rows([clean], [clean]).to_doc() == compare_rows([clean], [dict(clean)]).to_doc()


# ----------------------------------------------------------------------
# sweep-verify
# ----------------------------------------------------------------------
def test_diff_rows_parses_equal_lines_once(tmp_path, smoke, parses):
    _, path, rows = smoke
    copy = write(tmp_path / "copy.jsonl", map(dumps_row, rows))
    parses.update(loads=0)
    assert diff_rows(path, copy, expect_cells=len(rows)) == (len(rows), [])
    assert parses["loads"] == len(rows)


def test_sweep_verify_passes_a_reformatted_side_and_names_a_changed_column(
    tmp_path, smoke, capsys
):
    _, path, rows = smoke
    same = write(tmp_path / "same.jsonl", map(reformatted, rows))
    assert main(["sweep-verify", "--a", path, "--b", same]) == 0
    assert f"sweep-verify OK: {len(rows)} rows identical" in capsys.readouterr().out
    changed = [dict(r) for r in rows]
    changed[1]["makespan"] *= 1.5
    drift = write(tmp_path / "drift.jsonl", [*map(dumps_row, changed[:1]),
                                              reformatted(changed[1]),
                                              *map(dumps_row, changed[2:])])
    assert main(["sweep-verify", "--a", path, "--b", drift]) == 1
    err = capsys.readouterr().err
    assert f"row 1 ({rows[1]['cell_id']}): columns differ: makespan\n" in err


def test_diff_rows_reports_a_damaged_row_after_known_rows_on_both_sides(tmp_path, smoke):
    _, _, rows = smoke
    n = len(rows) - 1
    broken = dict(rows[n], exclusion_ok=False)
    lines = [*map(dumps_row, rows[:n]), "", dumps_row(broken), "[1]"]
    a = write(tmp_path / "a.jsonl", lines)
    b = write(tmp_path / "b.jsonl", lines)
    count, problems = diff_rows(a, b)
    assert count == len(rows)
    assert problems == [
        f"{a} row {n}: exclusion_ok is false — mutual exclusion violated "
        f"in cell {rows[n]['cell_id']}",
        f"{b} row {n}: exclusion_ok is false — mutual exclusion violated "
        f"in cell {rows[n]['cell_id']}",
        f"{a}:{n + 3}: not a JSON object; not a sweep row",
        f"{b}:{n + 3}: not a JSON object; not a sweep row",
    ]


# ----------------------------------------------------------------------
# results table --percentiles
# ----------------------------------------------------------------------
def test_table_with_percentiles_reads_the_run_once(tmp_path, smoke, parses, capsys):
    spec, _, rows = smoke
    store = stored(tmp_path, smoke)
    sketch = store.grid_sketch("smoke")
    parses.update(loads=0)
    assert main(["results", "table", "smoke", "--store", store.root, "--percentiles"]) == 0
    assert parses["loads"] == len(rows)
    out = capsys.readouterr().out
    assert "grid latency percentiles" in out
    for value in (sketch.count, round(sketch.quantile(99), 6), round(sketch.max_value(), 6)):
        assert str(value) in out
