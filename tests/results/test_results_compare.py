"""Cross-run comparison (``repro.results.compare``): the per-cell diff
with percent deltas."""

from __future__ import annotations

import json

from repro.results.compare import compare_rows


def rows_a():
    return [
        {"cell_id": "c0", "index": 0, "makespan": 10.0, "graph": "complete(n=8)"},
        {"cell_id": "c1", "index": 1, "makespan": 20.0, "graph": "path(n=8)"},
    ]


def test_identical_rows_compare_ok():
    cmp = compare_rows(rows_a(), rows_a(), max_delta_pct=0.0)
    assert cmp.ok
    assert cmp.compared == 2
    assert cmp.columns["makespan"]["changed"] == 0.0
    assert cmp.top_deltas == []
    doc = cmp.to_doc()
    assert doc["ok"] is True and doc["mode"] == "rows"
    json.dumps(doc)  # canonical doc must be JSON-able


def test_percent_deltas_and_tolerance_gate():
    b = rows_a()
    b[1]["makespan"] = 22.0  # +10%
    loose = compare_rows(rows_a(), b, max_delta_pct=15.0)
    assert loose.ok
    assert loose.columns["makespan"]["max_abs_pct"] == 10.0
    assert loose.top_deltas[0][1:3] == ("c1", "makespan")
    tight = compare_rows(rows_a(), b, max_delta_pct=5.0)
    assert not tight.ok
    assert "beyond" in tight.exceeding[0]
    assert any("+10.00%" in line for line in tight.report_lines())


def test_every_string_column_must_match_an_engine_label_too():
    """No column is ignored: a row still naming its engine (written before
    rows dropped the label) differs from one that does not."""
    b = rows_a()
    b[0]["graph"] = "ring(n=8)"
    cmp = compare_rows(rows_a(), b)
    assert not cmp.ok
    assert "non-numeric column 'graph' differs" in cmp.problems[0]
    b = rows_a()
    b[1]["engine"] = "fast"
    cmp = compare_rows(rows_a(), b)
    assert cmp.problems == ["c1: non-numeric column 'engine' differs: None vs 'fast'"]


def test_missing_cells_and_zero_baseline_are_problems():
    cmp = compare_rows(rows_a(), rows_a()[:1])
    assert not cmp.ok and "only in A" in cmp.problems[0]
    a = [{"cell_id": "c", "index": 0, "x": 0.0}]
    b = [{"cell_id": "c", "index": 0, "x": 3.0}]
    cmp = compare_rows(a, b)
    assert not cmp.ok
    assert "percent delta undefined" in cmp.problems[0]


def test_rows_without_a_cell_id_are_problems_not_skipped():
    cmp = compare_rows([{"x": 1}], [{"x": 2}])
    assert not cmp.ok
    assert cmp.problems == [
        "A row 1: no string cell_id, cannot be compared",
        "B row 1: no string cell_id, cannot be compared",
    ]
    a = rows_a() + [{"index": 2, "makespan": 5.0}]
    b = rows_a() + [{"index": 2, "makespan": 9.0}]
    cmp = compare_rows(a, b, max_delta_pct=0.0)
    assert not cmp.ok and cmp.compared == 2
    assert "A row 3: no string cell_id" in cmp.problems[0]


def test_a_repeated_cell_id_is_a_problem_naming_side_and_row():
    b = rows_a() + [dict(rows_a()[0], makespan=99.0)]
    cmp = compare_rows(rows_a(), b, max_delta_pct=0.0)
    assert not cmp.ok
    assert cmp.problems == ["B row 3: cell_id 'c0' repeated"]
    # A non-string id cannot pair either.
    cmp = compare_rows([{"cell_id": 0, "x": 1}], [{"cell_id": 0, "x": 1}])
    assert not cmp.ok and cmp.compared == 0


def test_cli_compare_fails_on_rows_it_cannot_pair(tmp_path, capsys):
    from repro.cli import main

    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text('{"x": 1}\n')
    b.write_text('{"x": 2}\n')
    assert main(["results", "compare", "--store", str(tmp_path / "store"),
                 "--a", str(a), "--b", str(b)]) == 1
    err = capsys.readouterr().err
    assert "A row 1: no string cell_id" in err and "results compare FAILED" in err
