"""Integration: the message-level simulation against the NN executor.

Lemma 3.8 says arrow's order *is* the nearest-neighbour path under
``c_T``.  On tie-free instances (continuous times make ties measure-zero)
the DES order must match the executor's exactly, completion for
completion; with ties, the DES order must still satisfy the NN property.
This is the strongest cross-validation in the repository: two independent
implementations of the protocol's semantics must agree.
"""

import pytest

from repro.analysis.nearest_neighbor import predict_arrow_run
from repro.analysis.verify import check_lemma_3_8
from repro.core.queueing import verify_total_order
from repro.core.message import run_arrow
from repro.graphs import (
    complete_graph,
    grid_graph,
    hypercube_graph,
    random_geometric_graph,
)
from repro.spanning import (
    balanced_binary_overlay,
    bfs_tree,
    mst_prim,
    random_spanning_tree,
)
from repro.workloads.schedules import bursty, one_shot, poisson, random_times
from lemma_oracles import check_direct_path_property, check_lemma_3_9, lemma_3_10_identity_gap

CASES = [
    ("k16/binary", lambda: complete_graph(16), balanced_binary_overlay),
    ("grid5x6/bfs", lambda: grid_graph(5, 6), bfs_tree),
    ("hypercube4/bfs", lambda: hypercube_graph(4), bfs_tree),
    ("geometric25/mst", lambda: random_geometric_graph(25, 0.35, seed=1), mst_prim),
    (
        "grid4x4/random-tree",
        lambda: grid_graph(4, 4),
        lambda g, r: random_spanning_tree(g, r, seed=3),
    ),
]


@pytest.mark.parametrize("name,make_graph,make_tree", CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("seed", range(3))
def test_des_matches_nn_executor_tie_free(name, make_graph, make_tree, seed):
    graph = make_graph()
    tree = make_tree(graph, 0)
    sched = random_times(graph.num_nodes, 35, horizon=20.0, seed=seed)
    res = run_arrow(graph, tree, sched)
    order = verify_total_order(res)
    pred = predict_arrow_run(tree, sched)
    assert check_lemma_3_8(tree, sched, order)
    assert check_lemma_3_9(tree, sched, order)
    assert check_direct_path_property(tree, res)
    assert lemma_3_10_identity_gap(tree, sched, order) < 1e-9
    if not pred.had_ties:
        assert order == pred.order
        assert res.total_latency == pytest.approx(pred.arrow_cost)


@pytest.mark.parametrize("name,make_graph,make_tree", CASES, ids=[c[0] for c in CASES])
def test_one_shot_concurrent_orders_satisfy_nn(name, make_graph, make_tree):
    """All-at-t=0 (the [10] setting): ties abound, NN property must hold."""
    graph = make_graph()
    tree = make_tree(graph, 0)
    sched = one_shot(list(range(graph.num_nodes)))
    res = run_arrow(graph, tree, sched)
    order = verify_total_order(res)
    assert check_lemma_3_8(tree, sched, order)
    assert check_direct_path_property(tree, res)


@pytest.mark.parametrize("seed", range(3))
def test_bursty_workload_cross_validates(seed):
    graph = grid_graph(4, 5)
    tree = bfs_tree(graph, 0)
    sched = bursty(20, bursts=3, burst_size=8, burst_span=1.5, idle_gap=25.0, seed=seed)
    res = run_arrow(graph, tree, sched)
    order = verify_total_order(res)
    assert check_lemma_3_8(tree, sched, order)
    pred = predict_arrow_run(tree, sched)
    if not pred.had_ties:
        assert order == pred.order


def test_high_contention_poisson_all_complete():
    graph = complete_graph(24)
    tree = balanced_binary_overlay(graph, 0)
    sched = poisson(24, 400, rate=50.0, seed=7)
    res = run_arrow(graph, tree, sched)
    assert len(verify_total_order(res)) == 400
    assert check_lemma_3_8(tree, sched, res.order)
