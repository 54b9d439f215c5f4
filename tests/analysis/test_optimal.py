"""Unit tests for the optimal-offline machinery."""

import itertools

import numpy as np
import pytest

from repro.analysis.costs import (
    augmented_nodes_times,
    c_m_matrix,
    c_o_matrix,
    request_distance_matrix,
)
from repro.analysis.optimal import (
    best_heuristic_path,
    held_karp_path,
    manhattan_mst_weight,
    opt_bounds,
    or_opt_improve,
)
from repro.core.requests import RequestSchedule
from repro.errors import AnalysisError
from repro.graphs import complete_graph, grid_graph
from repro.graphs.generators import path_graph
from repro.sim.rng import spawn_rng
from repro.spanning import balanced_binary_overlay, bfs_tree
from repro.spanning.tree import SpanningTree


def brute_force_path(C):
    m = C.shape[0]
    best = float("inf")
    for perm in itertools.permutations(range(1, m)):
        seq = [0, *perm]
        cost = sum(C[a, b] for a, b in zip(seq, seq[1:]))
        best = min(best, cost)
    return best


@pytest.mark.parametrize("seed", range(4))
def test_held_karp_matches_brute_force(seed):
    rng = spawn_rng(seed, "hk")
    C = rng.random((7, 7)) * 10
    np.fill_diagonal(C, 0.0)
    cost, path = held_karp_path(C)
    assert cost == pytest.approx(brute_force_path(C))
    # The returned path realises the cost and visits everything once.
    assert sorted(path) == list(range(7)) and path[0] == 0
    realized = sum(C[a, b] for a, b in zip(path, path[1:]))
    assert realized == pytest.approx(cost)


def test_held_karp_asymmetric_costs():
    C = np.array(
        [
            [0.0, 1.0, 10.0],
            [10.0, 0.0, 1.0],
            [1.0, 10.0, 0.0],
        ]
    )
    cost, path = held_karp_path(C)
    assert path == [0, 1, 2]
    assert cost == 2.0


def test_held_karp_trivial_sizes():
    assert held_karp_path(np.zeros((1, 1))) == (0.0, [0])
    cost, path = held_karp_path(np.array([[0.0, 3.0], [3.0, 0.0]]))
    assert cost == 3.0 and path == [0, 1]


def test_held_karp_size_guard():
    with pytest.raises(AnalysisError):
        held_karp_path(np.zeros((23, 23)))


@pytest.mark.parametrize("seed", range(3))
def test_or_opt_never_worsens_and_stays_valid(seed):
    rng = spawn_rng(seed, "oropt")
    C = rng.random((10, 10)) * 5
    np.fill_diagonal(C, 0.0)
    from repro.analysis.nearest_neighbor import nn_order

    nn = nn_order(C)
    improved_cost, path = or_opt_improve(nn.indices, C)
    assert improved_cost <= nn.total_cost + 1e-9
    assert sorted(path) == list(range(10)) and path[0] == 0


def scalar_or_opt(indices, C, max_rounds=8):
    """The scalar Or-opt: one Python gain per insertion point (the oracle)."""
    from repro.analysis.costs import path_cost

    path = list(indices)
    m = len(path)
    if m <= 2:
        return path_cost(path, C), path

    def splice_gain(i, j):
        # Remove path[i] and re-insert between path[j] and path[j+1]
        # (positions refer to the path *after* removal when j >= i).
        a, b, c = path[i - 1], path[i], path[i + 1] if i + 1 < m else None
        if c is None:
            removed = C[a, b]
            broken = 0.0
        else:
            removed = C[a, b] + C[b, c]
            broken = C[a, c]
        u = path[j]
        v = path[j + 1] if j + 1 < m else None
        if v is None:
            added = C[u, b]
            old = 0.0
        else:
            added = C[u, b] + C[b, v]
            old = C[u, v]
        return (removed - broken) - (added - old)

    improved = True
    rounds = 0
    while improved and rounds < max_rounds:
        improved = False
        rounds += 1
        for i in range(1, m):
            best_gain = 1e-12
            best_j = -1
            for j in range(0, m):
                if j in (i - 1, i):
                    continue
                g = splice_gain(i, j)
                if g > best_gain:
                    best_gain = g
                    best_j = j
            if best_j >= 0:
                b = path.pop(i)
                jj = best_j if best_j < i else best_j - 1
                path.insert(jj + 1, b)
                improved = True
    return path_cost(path, C), path


ORACLE_GRID = grid_graph(4, 5)


def c_opt_instance(m, seed):
    """``m - 1`` requests on a 4x5 grid and their ``C_Opt`` (root 0 first)."""
    rng = spawn_rng(seed, f"c-opt-{m}")
    sched = RequestSchedule.from_columns(
        rng.integers(0, 20, m - 1).tolist(), (rng.random(m - 1) * m / 3).tolist()
    )
    nodes, times = augmented_nodes_times(sched, 0)
    return sched, c_o_matrix(request_distance_matrix(ORACLE_GRID, nodes), times)


def oracle_matrix(kind, m, seed):
    if kind == "c_opt":
        return c_opt_instance(m, seed)[1]
    rng = spawn_rng(seed, f"oropt-{kind}-{m}")
    if kind == "uniform":
        C = rng.random((m, m)) * 10
    else:  # integer-valued: many equal gains, so the tie rule decides
        C = rng.integers(0, 4, (m, m)).astype(float)
    np.fill_diagonal(C, 0.0)
    return C


@pytest.mark.parametrize("kind", ["uniform", "integer", "c_opt"])
def test_or_opt_matches_the_scalar_oracle(kind):
    """Same cost and path, float for float and tie for tie, as the scalar
    Or-opt from the NN path, on 360 matrices per kind (m = 1..45)."""
    from repro.analysis.nearest_neighbor import nn_order

    for seed in range(8):
        for m in range(1, 46):
            C = oracle_matrix(kind, m, seed)
            start = nn_order(C, start=0).indices
            assert or_opt_improve(start, C) == scalar_or_opt(start, C), (m, seed)


def test_per_request_min_is_the_off_diagonal_column_minimum():
    """``opt_bounds``' per-request bound equals the per-column formula."""
    tree = bfs_tree(ORACLE_GRID, 0)
    for seed in range(8):
        for m in range(2, 46):
            sched, C = c_opt_instance(m, seed)
            col_min = np.empty(m - 1)
            for j in range(1, m):
                col_min[j - 1] = np.delete(C[:, j], j).min()
            b = opt_bounds(ORACLE_GRID, tree, sched, stretch=1.0, exact_limit=0)
            assert b.parts["per_request_min"] == float(col_min.sum())


def test_best_heuristic_upper_bounds_exact():
    rng = spawn_rng(5, "bh")
    C = rng.random((9, 9)) * 7
    np.fill_diagonal(C, 0.0)
    heur, _ = best_heuristic_path(C)
    exact, _ = held_karp_path(C)
    assert heur >= exact - 1e-9
    assert heur <= brute_force_path(C) * 3  # sane, not wild


def test_manhattan_mst_weight_vs_networkx():
    import networkx as nx

    rng = spawn_rng(2, "mst")
    pts_t = rng.random(8) * 10
    pts_x = rng.integers(0, 10, 8)
    D = np.abs(pts_x[:, None] - pts_x[None, :]).astype(float)
    CM = c_m_matrix(D, pts_t)
    G = nx.Graph()
    for i in range(8):
        for j in range(i + 1, 8):
            G.add_edge(i, j, weight=CM[i, j])
    want = nx.minimum_spanning_tree(G).size(weight="weight")
    assert manhattan_mst_weight(CM) == pytest.approx(want)


def test_manhattan_mst_trivial():
    assert manhattan_mst_weight(np.zeros((1, 1))) == 0.0


def test_opt_bounds_exact_small_instance():
    g = complete_graph(6)
    tree = balanced_binary_overlay(g, 0)
    sched = RequestSchedule([(3, 0.0), (5, 1.0), (2, 1.5)])
    b = opt_bounds(g, tree, sched, stretch=2.0, exact_limit=10)
    assert b.exact
    assert b.lower == b.upper
    assert "exact" in b.parts


def test_opt_bounds_bracket_ordering_large_instance():
    g = path_graph(20)
    tree = SpanningTree([max(0, i - 1) for i in range(20)], root=0)
    from repro.workloads.schedules import random_times

    sched = random_times(20, 30, horizon=10.0, seed=1)
    b = opt_bounds(g, tree, sched, stretch=1.0, exact_limit=5)
    assert not b.exact
    assert 0 < b.lower <= b.upper
    lo, hi = b.ratio_bracket(100.0)
    assert lo <= hi


def test_opt_bounds_mst_chain_is_valid_lower_bound():
    """The Lemma 3.17 chain bound never exceeds the exact optimum."""
    g = complete_graph(7)
    tree = balanced_binary_overlay(g, 0)
    from repro.workloads.schedules import random_times

    for seed in range(4):
        sched = random_times(7, 8, horizon=6.0, seed=seed)
        from repro.spanning import tree_stretch

        s = tree_stretch(g, tree).stretch
        b = opt_bounds(g, tree, sched, stretch=s, exact_limit=10)
        assert b.exact
        assert b.parts["mst_manhattan"] <= b.parts["exact"] + 1e-9
        assert b.parts["per_request_min"] <= b.parts["exact"] + 1e-9
        assert b.parts["root_reach"] <= b.parts["exact"] + 1e-9


def test_opt_bounds_empty_schedule():
    g = complete_graph(3)
    tree = balanced_binary_overlay(g, 0)
    b = opt_bounds(g, tree, RequestSchedule([]), stretch=1.0, exact_limit=10)
    assert b.lower == b.upper == 0.0


def test_unit_weighted_tree_graphs_take_d_g_from_d_t():
    """Every published thm41 cell's graph is its unit-weighted spanning
    tree, so the d_G that ``opt_bounds`` takes from d_T is the BFS one."""
    from repro.analysis.costs import augmented_nodes_times, request_distance_matrix
    from repro.sweep import GRIDS
    from repro.sweep.families import FAMILIES

    cells = list(GRIDS["thm41"]().cells())
    assert len(cells) == 8
    for cell in cells:
        built = FAMILIES[cell.schedule.family].build(cell, cell.seed)
        graph, tree = built["graph"], built["tree"]
        assert graph.num_edges == graph.num_nodes - 1 and graph.is_unit_weighted()
        nodes = augmented_nodes_times(built["schedule"], tree.root)[0]
        assert np.array_equal(
            request_distance_matrix(graph, nodes), request_distance_matrix(tree, nodes)
        ), cell.cell_id


def test_a_graph_that_is_not_a_tree_gets_d_g_by_bfs():
    """On a unit cycle the path tree is no shortcut: node 5 is one hop from
    the root in G and five in T, and the root-reach bound reads d_G."""
    from repro.graphs.generators import cycle_graph

    g = cycle_graph(6)
    tree = SpanningTree([max(0, i - 1) for i in range(6)], root=0)
    b = opt_bounds(g, tree, RequestSchedule([(5, 0.0)]), stretch=5.0, exact_limit=0)
    assert b.parts["root_reach"] == 1.0
    path = opt_bounds(path_graph(6), tree, RequestSchedule([(5, 0.0)]),
                      stretch=1.0, exact_limit=0)
    assert path.parts["root_reach"] == 5.0


def test_a_unit_weighted_tree_graph_runs_no_bfs(monkeypatch):
    import repro.analysis.costs as costs

    def no_bfs(*args):
        raise AssertionError("d_G of a tree graph was searched again")

    monkeypatch.setattr(costs, "bfs_distances", no_bfs)
    tree = SpanningTree([max(0, i - 1) for i in range(6)], root=0)
    b = opt_bounds(path_graph(6), tree, RequestSchedule([(5, 0.0), (2, 1.0)]),
                   stretch=1.0, exact_limit=0)
    assert b.parts["root_reach"] == 5.0
    with pytest.raises(AssertionError, match="searched again"):
        from repro.graphs.generators import cycle_graph

        opt_bounds(cycle_graph(6), tree, RequestSchedule([(5, 0.0)]),
                   stretch=5.0, exact_limit=0)
