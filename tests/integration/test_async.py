"""Integration: asynchronous executions (§3.8).

Under arbitrary (bounded) message delays the protocol must still produce
a single total order; latencies are bounded by the tree distance to the
realised predecessor (delays normalised to <= 1); and the competitive
ceiling of Theorem 3.21 holds against the offline bracket.
"""

import pytest

from repro.analysis import opt_bounds
from repro.analysis.competitive import theorem_319_ceiling
from repro.core.queueing import verify_total_order
from repro.core.message import run_arrow
from repro.graphs import complete_graph, grid_graph
from repro.net.latency import UniformLatency
from repro.spanning import balanced_binary_overlay, bfs_tree, tree_diameter, tree_stretch
from repro.workloads.schedules import one_shot, poisson
from latency_models import ExponentialCappedLatency
from tree_oracles import hop_distance

MODELS = [
    UniformLatency(0.1, 1.0),
    UniformLatency(0.5, 1.0),
    ExponentialCappedLatency(mean=0.3, cap=1.0),
]


@pytest.mark.parametrize("model", MODELS, ids=["uniform-wide", "uniform-tight", "exp"])
@pytest.mark.parametrize("seed", range(3))
def test_async_total_order_and_latency_bound(model, seed):
    graph = grid_graph(5, 5)
    tree = bfs_tree(graph, 0)
    sched = poisson(25, 80, rate=4.0, seed=seed)
    res = run_arrow(graph, tree, sched, latency=model, seed=seed)
    order = verify_total_order(res)
    assert len(order) == 80
    for r in sched:
        rec = res.completions[r.rid]
        # Direct path with per-hop delay <= weight (normalised model).
        assert res.latency(r.rid) <= tree.distance(r.node, rec.informed_node) + 1e-9
        assert rec.hops == hop_distance(tree, r.node, rec.informed_node)


@pytest.mark.parametrize("seed", range(3))
def test_async_one_shot_correctness(seed):
    graph = complete_graph(20)
    tree = balanced_binary_overlay(graph, 0)
    sched = one_shot(list(range(20)))
    res = run_arrow(graph, tree, sched, latency=UniformLatency(0.2, 1.0), seed=seed)
    assert len(verify_total_order(res)) == 20


def test_async_order_may_differ_from_sync():
    """Delays reorder concurrent requests — the freedom §3.8 allows."""
    graph = complete_graph(16)
    tree = balanced_binary_overlay(graph, 0)
    sched = poisson(16, 60, rate=30.0, seed=11)
    sync_order = run_arrow(graph, tree, sched).order
    orders = {
        tuple(
            run_arrow(
                graph, tree, sched, latency=UniformLatency(0.1, 1.0), seed=s
            ).order
        )
        for s in range(5)
    }
    assert len(orders | {tuple(sync_order)}) > 1


def test_theorem_321_ceiling_holds_async():
    graph = grid_graph(4, 4)
    tree = bfs_tree(graph, 0)
    sched = poisson(16, 14, rate=2.0, seed=2)
    stretch = tree_stretch(graph, tree).stretch
    cost = run_arrow(graph, tree, sched, latency=UniformLatency(0.2, 1.0), seed=4).total_latency
    bounds = opt_bounds(graph, tree, sched, stretch, exact_limit=14)
    assert bounds.exact
    _, hi = bounds.ratio_bracket(cost)
    assert hi <= theorem_319_ceiling(stretch, tree_diameter(tree)) + 1e-9
