"""Unit tests for the cost measures against brute-force definitions."""

import numpy as np
import pytest

from repro.analysis.costs import (
    augmented_nodes_times,
    c_m_matrix,
    c_o_matrix,
    c_t_matrix,
    order_to_indices,
    path_cost,
    request_distance_matrix,
)
from repro.core.requests import RequestSchedule
from repro.errors import AnalysisError
from repro.graphs import grid_graph
from repro.spanning import bfs_tree
from repro.spanning.tree import SpanningTree


@pytest.fixture
def setup():
    tree = SpanningTree([max(0, i - 1) for i in range(6)], root=0)
    sched = RequestSchedule([(5, 0.0), (2, 1.0), (4, 3.5), (0, 4.0)])
    nodes, times = augmented_nodes_times(sched, tree.root)
    D = request_distance_matrix(tree, nodes)
    return tree, sched, nodes, times, D


def test_augmented_vectors_put_root_first(setup):
    _, _, nodes, times, _ = setup
    assert nodes[0] == 0 and times[0] == 0.0
    assert list(nodes[1:]) == [5, 2, 4, 0]
    assert list(times[1:]) == [0.0, 1.0, 3.5, 4.0]


def test_tree_distances_match_pairwise_queries(setup):
    tree, _, nodes, _, D = setup
    m = len(nodes)
    for i in range(m):
        for j in range(m):
            assert D[i, j] == tree.distance(int(nodes[i]), int(nodes[j]))


def test_graph_distance_matrix_uses_graph_metric():
    g = grid_graph(3, 3)
    tree = bfs_tree(g, 0)
    sched = RequestSchedule([(8, 0.0), (2, 1.0)])
    nodes, _ = augmented_nodes_times(sched, tree.root)
    DG = request_distance_matrix(g, nodes)
    DT = request_distance_matrix(tree, nodes)
    assert np.all(DG <= DT + 1e-12)  # tree paths can only be longer


def test_c_t_matches_definition_brute_force(setup):
    _, _, nodes, times, D = setup
    CT = c_t_matrix(D, times)
    m = len(nodes)
    for i in range(m):
        for j in range(m):
            d = times[j] - times[i] + D[i, j]
            want = d if d >= 0 else times[i] - times[j] + D[i, j]
            assert CT[i, j] == pytest.approx(want)


def test_c_t_asymmetric(setup):
    _, _, _, times, D = setup
    CT = c_t_matrix(D, times)
    # Requests (5, t=0) and (2, t=1), dT = 3: forward cost 1+3 = 4 but
    # backward cost 3-1 = 2 (the d < 0 branch of Definition 3.5).
    assert CT[1, 2] == pytest.approx(4.0)
    assert CT[2, 1] == pytest.approx(2.0)


def test_c_m_is_manhattan(setup):
    _, _, nodes, times, D = setup
    CM = c_m_matrix(D, times)
    m = len(nodes)
    for i in range(m):
        for j in range(m):
            assert CM[i, j] == pytest.approx(D[i, j] + abs(times[i] - times[j]))
    assert np.allclose(CM, CM.T)


def test_c_o_matches_eq3(setup):
    _, _, nodes, times, D = setup
    CO = c_o_matrix(D, times)
    m = len(nodes)
    for i in range(m):
        for j in range(m):
            assert CO[i, j] == pytest.approx(max(D[i, j], times[i] - times[j]))


def test_cost_dominance_chain(setup):
    """0 <= c_T <= c_M and c_O <= c_M everywhere."""
    _, _, _, times, D = setup
    CT, CM, CO = c_t_matrix(D, times), c_m_matrix(D, times), c_o_matrix(D, times)
    assert np.all(CT >= -1e-12)
    assert np.all(CT <= CM + 1e-12)
    assert np.all(CO <= CM + 1e-12)


def test_path_cost_sums_consecutive(setup):
    _, _, _, _, D = setup
    assert path_cost([0, 1, 2], D) == pytest.approx(D[0, 1] + D[1, 2])
    assert path_cost([0], D) == 0.0


def test_order_index_roundtrip():
    order = [2, 0, 1]
    idx = order_to_indices(order)
    assert idx == [0, 3, 1, 2]  # the root's index 0 first, then rid + 1
    assert [i - 1 for i in idx[1:]] == order  # how predict_arrow_run decodes one


def test_disconnected_distance_matrix_raises():
    from repro.graphs.graph import Graph

    g = Graph(3)
    g.add_edge(0, 1)
    sched = RequestSchedule([(2, 0.0)])
    nodes, _ = augmented_nodes_times(sched, 0)
    with pytest.raises(AnalysisError):
        request_distance_matrix(g, nodes)
