"""The checked-in golden store must match a freshly-run smoke grid.

``tests/golden/results_store`` is the fixture the CI results-pipeline
job compares against; this test keeps it honest locally — if an engine
change legitimately alters smoke-grid rows, regenerate the fixture::

    PYTHONPATH=src python -m repro.cli sweep --grid smoke --out /tmp/s.jsonl
    rm -rf tests/golden/results_store
    PYTHONPATH=src python -m repro.cli results ingest /tmp/s.jsonl \
        --store tests/golden/results_store --grid smoke
"""

from __future__ import annotations

import os

from repro.results import ResultsStore, compare_rows
from repro.sweep import run_sweep, smoke_grid
from repro.sweep.persist import iter_rows

GOLDEN = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "golden",
    "results_store",
)


def test_golden_store_matches_a_fresh_smoke_run(tmp_path):
    spec = smoke_grid()
    jsonl = tmp_path / "smoke.jsonl"
    run_sweep(spec, str(jsonl))

    store = ResultsStore(GOLDEN)
    manifest = store.manifest("smoke")
    assert manifest["spec_hash"] == spec.spec_hash(), (
        "the smoke grid's spec hash moved — regenerate the golden store "
        "(see module docstring)"
    )
    assert manifest["complete"] is True
    cmp = compare_rows(store.rows("smoke"), iter_rows(str(jsonl)),
                       max_delta_pct=0.0)
    assert cmp.ok, cmp.problems + cmp.exceeding
    assert cmp.compared == manifest["cells"]


def test_golden_rows_file_is_byte_canonical():
    """Stored bytes == canonical re-serialisation (no drift on re-ingest)."""
    from repro.sweep.persist import dumps_row

    store = ResultsStore(GOLDEN)
    path = store.rows_path(store.manifest("smoke")["spec_hash"])
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    assert raw == "".join(dumps_row(r) + "\n" for r in iter_rows(path))


def test_golden_percentiles_text_is_pinned(capsys):
    """``results table smoke --percentiles`` over the fixture, to the byte
    (the text the sketch-backed PR 21 printed: midpoints are nearest-rank
    over the four rows' stored histograms, the max is a stored column)."""
    from repro.cli import main

    assert main(
        ["results", "table", "smoke", "--store", GOLDEN, "--percentiles"]
    ) == 0
    assert capsys.readouterr().out == (
        "== smoke: Grid 'smoke' summary ==\n"
        "n (nodes) | poisson/complete | poisson/path\n"
        "----------+------------------+-------------\n"
        "        8 |           10.117 |       12.764\n"
        "note: built from 4 sweep row(s); metric: makespan\n"
        "note: each point averages 2 seed(s)\n"
        "\n"
        "== grid latency percentiles (merged sketch, histogram-backed) ==\n"
        "requests : 170\n"
        "p50      : 0.9375\n"
        "p90      : 1.9375\n"
        "p99      : 3.875\n"
        "max      : 4.0\n"
    )
