"""Unit tests for the optimal-offline machinery."""

import itertools

import numpy as np
import pytest

from repro.analysis.costs import c_m_matrix
from repro.analysis.optimal import (
    best_heuristic_path,
    held_karp_path,
    held_karp_tour_cost,
    manhattan_mst_weight,
    opt_bounds,
    or_opt_improve,
)
from repro.core.requests import RequestSchedule
from repro.errors import AnalysisError
from repro.graphs import complete_graph
from repro.graphs.generators import path_graph
from repro.sim.rng import spawn_rng
from repro.spanning import balanced_binary_overlay
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


def brute_force_tour(C):
    m = C.shape[0]
    return min(
        sum(C[a, b] for a, b in zip(seq, seq[1:]))
        for seq in ([0, *perm, 0] for perm in itertools.permutations(range(1, m)))
    )


@pytest.mark.parametrize("m", range(2, 8))
def test_held_karp_tour_matches_brute_force(m):
    for seed in range(3):
        C = spawn_rng(seed, f"hk-tour-{m}").random((m, m)) * 10
        np.fill_diagonal(C, 0.0)
        assert held_karp_tour_cost(C) == pytest.approx(brute_force_tour(C))


def test_held_karp_tour_trivial_sizes():
    assert held_karp_tour_cost(np.zeros((0, 0))) == 0.0
    assert held_karp_tour_cost(np.zeros((1, 1))) == 0.0


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
