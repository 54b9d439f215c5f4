"""Unit tests for experiment records and rendering."""

import json

import pytest

from repro.experiments.records import ExperimentResult, Series
from repro.experiments.tables import format_kv, format_table
from repro.experiments.ascii_plot import plot


def sample_result():
    return ExperimentResult(
        experiment_id="demo",
        title="Demo result",
        xlabel="n",
        series=[
            Series("a", [1.0, 2.0, 3.0], [10.0, 20.0, 30.0], "ms"),
            Series("b", [1.0, 2.0, 3.0], [5.0, 5.5, 6.0]),
        ],
        params={"seed": 0},
        notes=["hello"],
    )


def test_series_length_mismatch_rejected():
    with pytest.raises(ValueError):
        Series("bad", [1.0], [1.0, 2.0])


def test_series_by_name():
    r = sample_result()
    assert r.series_by_name("a").unit == "ms"
    with pytest.raises(KeyError):
        r.series_by_name("zzz")


def test_json_roundtrip():
    """``--json`` writes ``to_json``'s document; it holds the whole record."""
    r = sample_result()
    back = json.loads(r.to_json())
    assert back["experiment_id"] == r.experiment_id
    assert back["series"][0] == {
        "name": "a", "xs": [1.0, 2.0, 3.0], "ys": [10.0, 20.0, 30.0], "unit": "ms"}
    assert back["notes"] == r.notes
    assert back["params"] == {"seed": 0}


def test_format_table_contains_all_cells():
    text = format_table(sample_result())
    assert "Demo result" in text
    assert "a [ms]" in text
    assert "30" in text and "5.500" in text
    assert "note: hello" in text


def test_format_kv_alignment():
    text = format_kv({"alpha": 1, "b": 2}, title="t")
    lines = text.splitlines()
    assert lines[0] == "== t =="
    assert lines[1].startswith("alpha")
    assert ":" in lines[2]


def test_plot_renders_marks_and_legend():
    text = plot(sample_result(), width=30, height=8)
    assert "o a" in text and "x b" in text
    assert "o" in text.splitlines()[1] or any(
        "o" in line for line in text.splitlines()
    )


def test_plot_empty_result():
    r = ExperimentResult("e", "Empty", "x", [])
    assert "Empty" in plot(r)


def test_plot_degenerate_single_point():
    r = ExperimentResult("e", "One", "x", [Series("s", [1.0], [2.0])])
    assert "One" in plot(r)
