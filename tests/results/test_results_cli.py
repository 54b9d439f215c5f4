"""End-to-end ``repro-arrow results`` subcommands through ``cli.main``.

The full pipeline a CI job runs: sweep -> ingest -> table/plot ->
compare, plus the idempotence and failure exit codes the job relies on.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.sweep.persist import dumps_row, iter_rows


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """sweep + ingest once; tests read the resulting store."""
    root = tmp_path_factory.mktemp("results-cli")
    jsonl = str(root / "smoke.jsonl")
    store = str(root / "store")
    assert main(["sweep", "--grid", "smoke", "--out", jsonl]) == 0
    assert main(
        ["results", "ingest", jsonl, "--store", store, "--grid", "smoke"]
    ) == 0
    return root, jsonl, store


def test_ingest_reports_and_is_idempotent(pipeline, capsys):
    root, jsonl, store = pipeline
    runs = os.path.join(store, "runs")
    (run_dir,) = os.listdir(runs)
    rows_path = os.path.join(runs, run_dir, "rows.jsonl")
    mtime = os.path.getmtime(rows_path)
    assert main(
        ["results", "ingest", jsonl, "--store", store, "--grid", "smoke"]
    ) == 0
    out = capsys.readouterr().out
    assert "0 new row(s), 4/4 cells (complete)" in out
    assert os.path.getmtime(rows_path) == mtime


def test_list_table_plot(pipeline, capsys):
    _, _, store = pipeline
    assert main(["results", "list", "--store", store]) == 0
    assert "smoke" in capsys.readouterr().out
    assert main(
        ["results", "table", "smoke", "--store", store, "--percentiles"]
    ) == 0
    out = capsys.readouterr().out
    assert "Grid 'smoke' summary" in out
    assert "grid latency percentiles" in out
    assert main(["results", "plot", "smoke", "--store", store]) == 0
    assert "n (nodes)" in capsys.readouterr().out


def test_compare_store_key_against_source_file(pipeline, capsys, tmp_path):
    _, jsonl, store = pipeline
    out_doc = str(tmp_path / "BENCH_results.json")
    assert main(
        ["results", "compare", "--store", store, "--a", "smoke",
         "--b", jsonl, "--max-delta-pct", "0.0", "--out", out_doc]
    ) == 0
    assert "results compare OK" in capsys.readouterr().out
    with open(out_doc, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["ok"] is True and doc["mode"] == "rows"


def test_compare_flags_a_drifted_cell(pipeline, capsys, tmp_path):
    _, jsonl, store = pipeline
    rows = list(iter_rows(jsonl))
    rows[0]["makespan"] = rows[0]["makespan"] * 1.5
    drifted = tmp_path / "drifted.jsonl"
    drifted.write_text("".join(dumps_row(r) + "\n" for r in rows))
    assert main(
        ["results", "compare", "--store", store, "--a", "smoke",
         "--b", str(drifted), "--max-delta-pct", "1.0"]
    ) == 1
    err = capsys.readouterr().err
    assert "results compare FAILED" in err and "beyond" in err


def test_a_row_still_naming_its_engine_is_reported_not_ignored(pipeline, capsys, tmp_path):
    """Rows name no engine, and no reader ignores a column: a file whose
    row still carries the label fails ``sweep-verify``, naming the column,
    and ``results compare``, as a differing non-numeric column."""
    _, jsonl, store = pipeline
    rows = list(iter_rows(jsonl))
    rows[1]["engine"] = "message"
    labelled = tmp_path / "labelled.jsonl"
    labelled.write_text("".join(dumps_row(r) + "\n" for r in rows))
    assert main(["sweep-verify", "--a", jsonl, "--b", str(labelled)]) == 1
    cid = rows[1]["cell_id"]
    assert f"row 1 ({cid}): columns differ: engine\n" in capsys.readouterr().err
    assert main(
        ["results", "compare", "--store", store, "--a", "smoke", "--b", str(labelled)]
    ) == 1
    err = capsys.readouterr().err
    assert f"{cid}: non-numeric column 'engine' differs: None vs 'message'" in err


def test_compare_mode_flags_are_mutually_exclusive(pipeline, tmp_path):
    """The retired bench-mode flags and a one-sided diff are usage errors."""
    _, jsonl, store = pipeline
    with pytest.raises(SystemExit) as exc:
        main(["results", "compare", "--store", store, "--a", "smoke",
              "--baseline", jsonl])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["results", "compare", "--store", store, "--a", "smoke"])


def test_unknown_run_key_fails_cleanly(pipeline, capsys):
    _, _, store = pipeline
    assert main(["results", "table", "fig10", "--store", store]) == 1
    assert "no stored run matches" in capsys.readouterr().err


def test_results_list_lists_runs_and_the_archive_flag_is_gone(pipeline, capsys):
    """The experiment archive was write-only (no command read it back) and
    ``--json`` writes the identical document: the top-level ``--store`` is a
    usage error now, and ``results list`` prints runs only."""
    _, _, store = pipeline
    with pytest.raises(SystemExit) as exc:
        main(["--store", store, "fig9", "-D", "8", "-k", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["results", "list", "--store", store]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("run ") and "smoke" in lines[0]
    assert not os.path.exists(os.path.join(store, "experiments"))
