"""Latency histogram/percentile columns: stats unit tests + JSONL contracts.

The byte-identity contract of sweep files extends to the latency columns:
bins and percentiles must be byte-identical across worker counts and
across resume-from-partial, for open- and closed-loop cells alike.
"""

import sys

import pytest

from repro.sweep import (
    GraphSpec,
    ScheduleSpec,
    SweepSpec,
    execute_cell,
    families,
    fig10_grid,
    fig11_grid,
    latency_columns,
    orchestrate_sweep,
    run_sweep,
    shard_path,
)
from repro.sweep.persist import iter_rows
from repro.sweep.stats import DEFAULT_BINS, percentile_nearest_rank

LATENCY_KEYS = {
    "latency_mean",
    "latency_p50",
    "latency_p90",
    "latency_p99",
    "latency_max",
    "latency_hist",
}


def closed_spec(engine="fast"):
    return fig10_grid(
        sizes=(5, 9), requests_per_proc=8, seeds=(0,), engine=engine
    )


# ----------------------------------------------------------------------
# stats unit tests
# ----------------------------------------------------------------------
def test_percentile_nearest_rank_known_values():
    vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert percentile_nearest_rank(vals, 50) == 5.0
    assert percentile_nearest_rank(vals, 90) == 9.0
    assert percentile_nearest_rank(vals, 99) == 10.0
    assert percentile_nearest_rank(vals, 100) == 10.0
    assert percentile_nearest_rank(vals, 1) == 1.0
    with pytest.raises(ValueError):
        percentile_nearest_rank([], 50)
    with pytest.raises(ValueError):
        percentile_nearest_rank(vals, 0)


def test_latency_columns_summary_and_histogram():
    cols = latency_columns([0.0, 1.0, 2.0, 3.0])
    assert set(cols) == LATENCY_KEYS
    assert cols["latency_mean"] == 1.5
    assert cols["latency_p50"] == 1.0  # nearest rank on 4 values
    assert cols["latency_max"] == 3.0
    # Equal-width buckets on [0, latency_max]; the top edge is inclusive.
    assert cols["latency_hist"] == [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1]


def test_latency_columns_empty_and_degenerate():
    empty = latency_columns([])
    assert empty["latency_hist"] == [0] * DEFAULT_BINS
    assert empty["latency_max"] == 0.0
    # All-zero latencies (every request a local find): one spike, bin 0.
    zeros = latency_columns([0.0] * 7)
    assert zeros["latency_hist"] == [7] + [0] * (DEFAULT_BINS - 1)
    assert zeros["latency_max"] == 0.0


def test_latency_columns_order_independent():
    fwd = latency_columns([3.0, 0.5, 2.0, 0.5, 9.0])
    rev = latency_columns([9.0, 0.5, 2.0, 0.5, 3.0])
    assert fwd == rev


# ----------------------------------------------------------------------
# float totals: the same bits on every interpreter
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "spec",
    [
        fig11_grid(sizes=(8,), per_node=10, seeds=(0,)),
        fig10_grid(sizes=(5,), requests_per_proc=8, seeds=(0,)),
    ],
    ids=["open", "closed"],
)
def test_total_latency_does_not_depend_on_the_builtin_sum(monkeypatch, spec):
    """CPython 3.12 made ``sum`` over floats compensated, so a row total
    taken with it depends on the interpreter that wrote the row.  These
    cells' latencies are non-integer and their two summations differ
    (re-summed under 3.12.1 and 3.13.0), so a leg that regresses to ``sum``
    fails here on 3.12+."""
    columns = []

    def capture(latencies):
        columns.append(list(latencies))
        return latency_columns(columns[-1])

    monkeypatch.setattr(families, "latency_columns", capture)
    rows = [execute_cell(cell) for cell in spec.cells()]
    assert len(columns) == len(rows) > 0
    for row, column in zip(rows, columns):
        total = 0.0
        for latency in column:
            total += latency
        assert row["total_latency"] == total, row["cell_id"]
        if sys.version_info >= (3, 12):
            assert sum(column) != total, row["cell_id"]


# ----------------------------------------------------------------------
# JSONL contracts
# ----------------------------------------------------------------------
def test_every_row_kind_carries_latency_columns():
    open_cell = SweepSpec(
        name="o",
        graphs=(GraphSpec.of("complete", n=6),),
        trees=("bfs",),
        schedules=(ScheduleSpec.of("poisson", per_node=4, rate_per_node=0.5),),
        seeds=(0,),
    ).cells()[0]
    for cell in [open_cell, *closed_spec().cells()[:2]]:
        row = execute_cell(cell)
        assert LATENCY_KEYS <= set(row), cell.cell_id
        assert len(row["latency_hist"]) == DEFAULT_BINS
        assert sum(row["latency_hist"]) == row["requests"]
        assert row["latency_p50"] <= row["latency_p90"] <= row["latency_max"]


def test_closed_loop_rows_identical_across_engines():
    for cf, cm in zip(closed_spec("fast").cells(), closed_spec("message").cells()):
        assert execute_cell(cf) == execute_cell(cm)


def test_closed_sweep_worker_count_never_changes_bytes(tmp_path):
    p1 = tmp_path / "w1.jsonl"
    p3 = tmp_path / "w3.jsonl"
    s1 = run_sweep(closed_spec(), str(p1))
    s3 = orchestrate_sweep(closed_spec(), str(p3), shards=3, workers=3)
    assert s1["written"] == s3["rows"] == 4
    assert p1.read_bytes() == p3.read_bytes()
    for row in iter_rows(str(p1)):
        assert LATENCY_KEYS <= set(row)


def test_resume_preserves_histogram_bins_byte_identically(tmp_path):
    """Truncate mid-grid, resume — in one process or supervised: same bytes."""
    p = tmp_path / "resume.jsonl"
    run_sweep(closed_spec(), str(p))
    whole = p.read_bytes()
    lines = whole.decode().strip().split("\n")
    # Keep one complete row plus a truncated second one (killed-run shape).
    p.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 3])
    summary = run_sweep(closed_spec(), str(p))
    assert summary["skipped"] == 1 and summary["written"] == 3
    assert p.read_bytes() == whole
    # The same damage in a shard file of a two-worker run.
    p2 = tmp_path / "resume2.jsonl"
    orchestrate_sweep(closed_spec(), str(p2), shards=2, workers=2)
    assert p2.read_bytes() == whole
    shard0 = shard_path(str(p2), 0, 2)
    with open(shard0, "w", encoding="utf-8") as fh:
        fh.write(lines[0] + "\n" + lines[2][: len(lines[2]) // 3])
    p2.unlink()
    orchestrate_sweep(closed_spec(), str(p2), shards=2, workers=2)
    assert p2.read_bytes() == whole
    hists = [row["latency_hist"] for row in iter_rows(str(p))]
    assert all(isinstance(h, list) and len(h) == DEFAULT_BINS for h in hists)


def test_closed_and_open_cells_mix_in_one_grid(tmp_path):
    """A single spec can sweep open and closed workloads side by side."""
    spec = SweepSpec(
        name="mix",
        graphs=(GraphSpec.of("complete", n=6),),
        trees=("bfs",),
        schedules=(
            ScheduleSpec.of("one_shot"),
            ScheduleSpec.of("closed_arrow", requests_per_proc=5, think_time=0.2),
            ScheduleSpec.of("closed_centralized", requests_per_proc=5),
        ),
        seeds=(0,),
    )
    p = tmp_path / "mix.jsonl"
    summary = orchestrate_sweep(spec, str(p), shards=2, workers=2)
    assert summary["rows"] == 3
    rows = list(iter_rows(str(p)))
    assert [r["schedule"].split("(")[0] for r in rows] == [
        "one_shot",
        "closed_arrow",
        "closed_centralized",
    ]
    assert rows[1]["requests"] == rows[2]["requests"] == 30
    for r in rows:
        assert LATENCY_KEYS <= set(r)


def test_closed_loop_schedule_axis_validates_params():
    from repro.errors import ScheduleError
    from repro.sweep import build_schedule

    with pytest.raises(ScheduleError):
        ScheduleSpec.of("closed_arrow", center=3)  # centralized-only param
    with pytest.raises(ScheduleError):
        ScheduleSpec.of("closed_arrow", requests_per_procc=5)  # typo
    # Closed-loop families never build open-loop schedules.
    with pytest.raises(ScheduleError):
        build_schedule(ScheduleSpec.of("closed_arrow"), 8, 0)
