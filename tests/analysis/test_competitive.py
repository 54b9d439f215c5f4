"""Theorem 3.19's ceiling and the competitive bracket a ``ratio`` cell measures."""

import pytest

from repro.analysis import opt_bounds, predict_arrow_run
from repro.analysis.competitive import theorem_319_ceiling
from repro.core.fast_arrow import run_arrow_fast
from repro.core.requests import RequestSchedule
from repro.errors import SweepError
from repro.graphs import complete_graph
from repro.graphs.generators import path_graph
from repro.net.latency import UniformLatency
from repro.spanning import (
    balanced_binary_overlay,
    tree_diameter,
    tree_stretch,
)
from repro.spanning.tree import SpanningTree
from repro.sweep import GraphSpec, ScheduleSpec, SweepSpec, execute_cell
from repro.workloads.schedules import poisson, random_times


def chain_tree(n):
    return SpanningTree([max(0, i - 1) for i in range(n)], root=0)


def ratio_row(graph, tree, **params):
    """The row of one ``ratio`` cell (master seed 0)."""
    spec = SweepSpec(
        name="ratio",
        graphs=(graph,),
        trees=(tree,),
        schedules=(ScheduleSpec.of("ratio", **params),),
        seeds=(0,),
    )
    (cell,) = spec.cells()
    return execute_cell(cell)


def test_ceiling_grows_with_stretch_and_diameter():
    assert theorem_319_ceiling(2.0, 16) > theorem_319_ceiling(1.0, 16)
    assert theorem_319_ceiling(1.0, 1024) > theorem_319_ceiling(1.0, 16)


def test_report_fields_consistent():
    """A ``ratio`` row's bracket is its own cost over its own opt bounds,
    ordered and under the ceiling of its own stretch and diameter."""
    for count, exact in ((3, True), (11, False)):
        row = ratio_row(GraphSpec.of("path", n=9), "bfs", count=count)
        assert row["stretch"] == 1.0 and row["diameter"] == 8.0
        assert row["ceiling"] == theorem_319_ceiling(1.0, 8.0)
        assert row["total_latency"] > 0
        assert row["ratio_lo"] == row["total_latency"] / row["opt_upper"]
        assert row["ratio_hi"] == row["total_latency"] / row["opt_lower"]
        assert row["ratio_lo"] <= row["ratio_hi"] <= row["ceiling"]
        # Held-Karp runs up to 10 requests: the bracket collapses there.
        assert (row["opt_lower"] == row["opt_upper"]) is exact


def test_fast_executor_mode_matches_simulation_on_tie_free():
    g = path_graph(12)
    tree = chain_tree(12)
    sched = random_times(12, 10, horizon=8.0, seed=3)
    sim = run_arrow_fast(g, tree, sched).total_latency
    assert predict_arrow_run(tree, sched).arrow_cost == pytest.approx(sim)


def test_empty_schedule_rejected():
    with pytest.raises(SweepError, match="count must be a positive integer"):
        ratio_row(GraphSpec.of("path", n=4), "bfs", count=0)


def test_exact_bracket_collapses_for_small_instances():
    g = complete_graph(6)
    tree = balanced_binary_overlay(g, 0)
    sched = RequestSchedule([(2, 0.0), (5, 0.5), (3, 2.0)])
    bounds = opt_bounds(g, tree, sched, tree_stretch(g, tree).stretch, exact_limit=10)
    lo, hi = bounds.ratio_bracket(run_arrow_fast(g, tree, sched).total_latency)
    assert bounds.exact
    assert lo == pytest.approx(hi)
    assert lo >= 1.0 - 1e-9  # arrow can't beat the optimum


def test_async_report_within_ceiling():
    g = complete_graph(8)
    tree = balanced_binary_overlay(g, 0)
    sched = poisson(8, 12, rate=2.0, seed=1)
    stretch = tree_stretch(g, tree).stretch
    cost = run_arrow_fast(
        g, tree, sched, latency=UniformLatency(0.3, 1.0), seed=2
    ).total_latency
    _, hi = opt_bounds(g, tree, sched, stretch, exact_limit=12).ratio_bracket(cost)
    assert hi <= theorem_319_ceiling(stretch, tree_diameter(tree)) + 1e-9
