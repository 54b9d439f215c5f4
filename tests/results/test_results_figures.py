"""Canonical figures rebuilt from stored rows (``repro.results.figures``)."""

from __future__ import annotations

import pytest

from repro.errors import ResultsError
from repro.results import FIGURES, figure_from_rows
from repro.results.figures import Figure


def row(**kw):
    base = {
        "cell_id": "c",
        "index": 0,
        "n": 8,
        "seed": 0,
        "graph": "complete(n=8)",
        "tree": "bfs",
        "schedule": "poisson(rate=1)",
        "makespan": 10.0,
        "mean_hops": 1.5,
    }
    base.update(kw)
    return base


def test_series_split_by_schedule_family_and_seed_average():
    rows = [
        row(seed=0, makespan=10.0),
        row(seed=1, makespan=14.0),
        row(seed=0, n=16, makespan=20.0),
        row(seed=1, n=16, makespan=24.0),
        row(schedule="burst(k=3)", makespan=50.0),
        row(schedule="burst(k=3)", n=16, makespan=60.0),
    ]
    result = figure_from_rows("fig10", rows)
    assert result.experiment_id == "fig10"
    assert [s.name for s in result.series] == ["burst", "poisson"]
    poisson = result.series[1]
    assert poisson.xs == [8.0, 16.0]
    assert poisson.ys == [12.0, 22.0]  # seeds averaged per x
    assert result.params["metric"] == "makespan"
    assert any("2 seed(s)" in n for n in result.notes)


def test_axes_join_the_label_only_when_swept():
    rows = [
        row(tree="bfs"),
        row(tree="mst", makespan=11.0),
    ]
    result = figure_from_rows("smoke", rows)
    assert [s.name for s in result.series] == ["poisson/bfs", "poisson/mst"]
    # Single tree, many graph families -> graph joins instead.
    rows = [row(), row(graph="path(n=8)", makespan=9.0)]
    result = figure_from_rows("smoke", rows)
    assert [s.name for s in result.series] == [
        "poisson/complete",
        "poisson/path",
    ]


def test_fault_plans_never_average_with_fault_free_rows():
    rows = [row(), row(faults="crash@1.0:3", makespan=99.0)]
    result = figure_from_rows("smoke", rows)
    assert [s.name for s in result.series] == [
        "poisson",
        "poisson/f[crash@1.0:3]",
    ]


def test_default_metric_per_figure_and_override():
    rows = [row()]
    assert figure_from_rows("fig11", rows).params["metric"] == "mean_hops"
    result = figure_from_rows("fig11", rows, metric="makespan")
    assert result.params["metric"] == "makespan"
    assert "makespan" in result.title


def test_missing_metric_lists_numeric_columns():
    with pytest.raises(ResultsError, match="numeric columns:.*makespan"):
        figure_from_rows("fig10", [row()], metric="nope")
    with pytest.raises(ResultsError, match="no rows"):
        figure_from_rows("fig10", [])
    with pytest.raises(ResultsError, match="not numeric"):
        figure_from_rows("fig10", [row(makespan="oops")])


def test_fig9_result_adapter():
    """Fig. 9's record is its lower-bound row through fixed series: one x
    point (the instance diameter ``D``), one series per cost measure."""
    from repro.sweep import iter_sweep
    from repro.sweep.spec import fig9_grid

    (row,) = iter_sweep(fig9_grid(16, 2, "layered"))
    result = figure_from_rows("fig9", [row])
    assert result.experiment_id == "fig9" and result.xlabel == "D"
    names = [s.name for s in result.series]
    assert "arrow cost" in names and "measured ratio" in names
    assert all(s.xs == [16.0] for s in result.series)
    assert result.series_by_name("arrow cost").ys == [row["arrow_cost"]]
    assert result.params["metric"] is None  # fixed series, no one metric


def test_fixed_series_filter_rows_and_categorical_cases(monkeypatch):
    rows = [
        row(variant="a", diameter=4, ratio=2.0),
        row(variant="b", diameter=4, ratio=3.0),
        row(variant="b", diameter=8, ratio=5.0),
    ]
    series = (("b only", "ratio", ("variant", "b")), ("all", "ratio"))
    monkeypatch.setitem(FIGURES, "demo", Figure("Demo", x="diameter", series=series))
    result = figure_from_rows("demo", rows)
    assert [(s.name, s.xs, s.ys) for s in result.series] == [
        ("b only", [4.0, 8.0], [3.0, 5.0]),
        ("all", [4.0, 8.0], [2.5, 5.0]),
    ]
    # Cases: a row's x is the first case it meets; a row meeting none drops.
    cases = ((("variant", "b"), ("diameter", 8)), (("variant", "a"),))
    fig = Figure("Demo", series=(("r", "ratio"),), cases=cases)
    monkeypatch.setitem(FIGURES, "demo", fig)
    (only,) = figure_from_rows("demo", rows).series
    assert (only.xs, only.ys) == ([0.0, 1.0], [5.0, 2.0])
    monkeypatch.setitem(FIGURES, "demo", Figure("Demo", series=(("m", "nope"),)))
    with pytest.raises(ResultsError, match="no 'nope' column"):
        figure_from_rows("demo", rows)
