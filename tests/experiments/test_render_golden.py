"""Golden-string coverage for the ASCII renderers (tables + plots).

These are the exact bytes the CLI prints and the bench logs archive, so
they are pinned as goldens: float formatting (whole floats render as
ints, others as ``.3f``), the mismatched-series padding note, and the
plot's empty/partial-series guards all have one canonical rendering.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments.ascii_plot import plot
from repro.experiments.records import ExperimentResult, Series
from repro.experiments.tables import format_kv, format_table


def test_table_golden_with_float_formatting_edges():
    result = ExperimentResult(
        experiment_id="fig10",
        title="Arrow vs centralized",
        xlabel="n",
        series=[
            Series("arrow", [8.0, 16.0, 32.0], [1.0, 2.5, 10.0 / 3.0],
                   "sim time"),
            Series("central", [8.0, 16.0, 32.0], [4.0, 8.0, 16.0]),
        ],
        notes=["closed loop"],
    )
    assert format_table(result) == (
        "== fig10: Arrow vs centralized ==\n"
        "n  | arrow [sim time] | central\n"
        "---+------------------+--------\n"
        " 8 |                1 |       4\n"
        "16 |            2.500 |       8\n"
        "32 |            3.333 |      16\n"
        "note: closed loop"
    )


def test_table_pads_mismatched_series_and_notes_it():
    """A series that ran short pads with '-' instead of misaligning."""
    short = Series("partial", [8.0, 16.0], [5.0, 6.0])
    short.ys = [5.0]  # post-construction drift (incremental fill)
    result = ExperimentResult(
        "mix", "Mismatch", "n",
        series=[Series("full", [8.0, 16.0, 32.0], [1.0, 2.0, 3.0]), short],
    )
    assert format_table(result) == (
        "== mix: Mismatch ==\n"
        "n  | full | partial\n"
        "---+------+--------\n"
        " 8 |    1 |       5\n"
        "16 |    2 |       -\n"
        "32 |    3 |       -\n"
        "note: series lengths differ — x column follows the longest "
        "series (3 points); padded: partial (2 points)"
    )


def test_table_x_column_follows_the_longest_series():
    a = Series("a", [1.0], [10.0])
    b = Series("b", [1.0, 2.0, 3.0], [10.0, 20.0, 30.0])
    table = format_table(ExperimentResult("t", "T", "x", series=[a, b]))
    assert table.count("\n") == 6  # title + header + sep + 3 rows + note
    assert "a (1 points)" in table


def test_table_with_no_series_and_no_rows():
    assert format_table(ExperimentResult("t", "T", "x")) == (
        "== t: T ==\nx\n-"
    )


def test_float_fmt_is_overridable():
    result = ExperimentResult(
        "t", "T", "x", series=[Series("s", [1.0], [2.34567])]
    )
    assert "2.3457" in format_table(result, float_fmt="{:.4f}")
    assert "2.346" in format_table(result)


def test_format_kv_alignment():
    assert format_kv({"a": 1, "long_key": 2}, title="t") == (
        "== t ==\na        : 1\nlong_key : 2"
    )


def test_plot_golden_small_grid():
    result = ExperimentResult(
        "p", "Tiny", "n", series=[Series("a", [0.0, 1.0], [0.0, 2.0])]
    )
    assert plot(result, width=8, height=4) == (
        "Tiny  (y: 0..2)\n"
        "|       o\n"
        "|        \n"
        "|        \n"
        "|o       \n"
        "+--------\n"
        " x: n 0..1\n"
        " o a"
    )


def test_plot_guards_series_with_xs_but_no_ys():
    """Regression: non-empty xs + empty ys used to crash min() — now the
    series contributes nothing and is marked in the legend."""
    broken = Series("b", [1.0], [9.0])
    broken.ys = []
    result = ExperimentResult(
        "p2", "Guarded", "n",
        series=[Series("a", [0.0, 1.0], [0.0, 2.0]), broken],
    )
    assert plot(result, width=8, height=4) == (
        "Guarded  (y: 0..2)\n"
        "|       o\n"
        "|        \n"
        "|        \n"
        "|o       \n"
        "+--------\n"
        " x: n 0..1\n"
        " o a  x b (no data)"
    )


def test_plot_with_no_plottable_points_is_a_stub():
    broken = Series("b", [1.0], [9.0])
    broken.ys = []
    result = ExperimentResult("p3", "Nothing", "n", series=[broken])
    assert plot(result) == "(empty plot: Nothing)"
    assert plot(ExperimentResult("p4", "Bare", "n")) == "(empty plot: Bare)"


def test_plot_partial_series_plots_only_paired_prefix():
    lagging = Series("lag", [0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
    lagging.ys = [0.0, 1.0]  # third point not yet filled in
    out = plot(
        ExperimentResult("p5", "Lag", "n", series=[lagging]),
        width=8, height=4,
    )
    # The axis range only spans the paired points (x stops at 1, y at 1).
    assert "x: n 0..1" in out
    assert "(y: 0..1)" in out
    assert "(no data)" not in out


def test_series_constructor_still_validates_lengths():
    with pytest.raises(ValueError, match="2 xs vs 1 ys"):
        Series("s", [1.0, 2.0], [1.0])


def test_table_renders_non_finite_values():
    """``inf`` / ``-inf`` / ``nan`` cells print as such; ``int(v)`` used to
    raise OverflowError / ValueError on them."""
    result = ExperimentResult(
        "t", "T", "x",
        series=[Series("s", [1.0, 2.0, 3.0], [math.inf, -math.inf, math.nan])],
    )
    assert format_table(result) == (
        "== t: T ==\n"
        "x | s   \n"
        "--+-----\n"
        "1 |  inf\n"
        "2 | -inf\n"
        "3 |  nan"
    )


def test_plot_skips_non_finite_points():
    """A non-finite x or y is skipped like an unpaired point."""
    result = ExperimentResult(
        "p", "Gaps", "n",
        series=[
            Series("a", [0.0, 1.0, 2.0, math.nan], [0.0, math.inf, 2.0, 1.0]),
            Series("b", [1.0], [math.nan]),
        ],
    )
    assert plot(result, width=8, height=4) == (
        "Gaps  (y: 0..2)\n"
        "|       o\n"
        "|        \n"
        "|        \n"
        "|o       \n"
        "+--------\n"
        " x: n 0..2\n"
        " o a  x b (no data)"
    )


def test_an_infinite_ratio_row_renders():
    """A request at the root costs 0 against an opt lower bound of 0: the
    ratio bracket is ``inf``, and the row still tabulates and plots."""
    from repro.analysis import opt_bounds
    from repro.analysis.competitive import theorem_319_ceiling
    from repro.core.fast_arrow import run_arrow_fast
    from repro.graphs.generators import path_graph
    from repro.results import figure_from_rows
    from repro.spanning import bfs_tree, tree_diameter
    from repro.workloads.schedules import one_shot

    g = path_graph(5)
    tree, sched = bfs_tree(g, 0), one_shot([0])
    bounds = opt_bounds(g, tree, sched, 1.0, exact_limit=10)
    lo, hi = bounds.ratio_bracket(run_arrow_fast(g, tree, sched).total_latency)
    assert hi == math.inf
    D = tree_diameter(tree)
    row = {"diameter": D, "ratio_lo": lo, "ratio_hi": hi, "ceiling": theorem_319_ceiling(1.0, D)}
    fig = figure_from_rows("thm319", [row])
    assert format_table(fig).splitlines()[3] == (
        "              4 |                     inf |                     inf"
        " |                300"
    )
    assert plot(fig).endswith("+ O(s log D) ceiling")
