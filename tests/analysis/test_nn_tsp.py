"""Unit tests for the Theorem 3.18 oracle (``tests/nn_tsp.py``)."""

import itertools

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.sim.rng import spawn_rng
from nn_tsp import (
    check_theorem_318,
    held_karp_tour_cost,
    nn_tour,
    optimal_tour_cost,
    tour_cost,
    validate_dominated_pair,
)


def metric_from(rng, m):
    """Random shortest-path-closed metric from random symmetric costs."""
    C = rng.random((m, m)) * 10
    C = (C + C.T) / 2
    np.fill_diagonal(C, 0.0)
    # Floyd-Warshall closure makes it a metric.
    for k in range(m):
        C = np.minimum(C, C[:, k][:, None] + C[k, :][None, :])
    return C


def random_metric(m, seed):
    return metric_from(spawn_rng(seed, "metric"), m)


def test_tour_cost_closes_loop():
    C = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    assert tour_cost([0, 1, 2], C) == 1 + 3 + 2


def test_nn_tour_includes_closing_edge():
    C = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    cost, indices, max_edge, min_nonzero = nn_tour(C)
    assert indices == [0, 1, 2]
    assert cost == 1 + 3 + 2
    assert max_edge == 3.0
    assert min_nonzero == 1.0


def brute_force_tour(C):
    """Cheapest closed tour by enumeration (every permutation, vectorised)."""
    m = C.shape[0]
    perms = np.array(list(itertools.permutations(range(1, m))), dtype=np.intp)
    seq = np.hstack([np.zeros((len(perms), 1), dtype=np.intp), perms])
    return float(C[seq, np.roll(seq, -1, axis=1)].sum(axis=1).min())


def test_nn_tour_min_nonzero_edge_skips_zero_edges():
    C = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    cost, indices, max_edge, min_nonzero = nn_tour(C)
    assert indices == [0, 1, 2]
    assert (cost, max_edge, min_nonzero) == (5.0, 3.0, 2.0)
    assert nn_tour(np.zeros((3, 3)))[3] == 0.0


@pytest.mark.parametrize("m", range(2, 8))
def test_held_karp_tour_matches_brute_force(m):
    for seed in range(3):
        C = spawn_rng(seed, f"hk-tour-{m}").random((m, m)) * 10
        np.fill_diagonal(C, 0.0)
        assert held_karp_tour_cost(C) == pytest.approx(brute_force_tour(C))


def test_held_karp_tour_trivial_sizes():
    assert held_karp_tour_cost(np.zeros((0, 0))) == 0.0
    assert held_karp_tour_cost(np.zeros((1, 1))) == 0.0


def test_optimal_tour_exact_small():
    C = random_metric(6, 1)
    exact = optimal_tour_cost(C)
    best = min(
        tour_cost([0, *perm], C) for perm in itertools.permutations(range(1, 6))
    )
    assert exact == pytest.approx(best) == brute_force_tour(C)


@pytest.mark.parametrize("m", range(1, 9))
def test_optimal_tour_is_the_brute_force_optimum_on_asymmetric_costs(m):
    for seed in range(4):
        C = spawn_rng(seed, "asymmetric").random((m, m)) * 10
        np.fill_diagonal(C, 0.0)
        assert optimal_tour_cost(C) == pytest.approx(brute_force_tour(C), abs=1e-12)


def test_optimal_tour_is_exact_up_to_the_exact_limit():
    # Ten points under the Manhattan metric: the cheapest *path* closed
    # into a tour (what this returned for 10 <= m <= 13) costs 5.1421 here.
    rng = np.random.default_rng(0)
    rng.random((10, 2))
    P = rng.random((10, 2))
    C = np.abs(P[:, None, :] - P[None, :, :]).sum(axis=2)
    assert brute_force_tour(C) == pytest.approx(4.197733753930396, abs=1e-12)
    assert optimal_tour_cost(C) == pytest.approx(4.197733753930396, abs=1e-12)
    # Past the limit it is the heuristic's upper bound, never below.
    assert optimal_tour_cost(C, exact_limit=8) >= 4.197733753930396 - 1e-12


def test_validate_dominated_pair_accepts_valid():
    Do = random_metric(6, 2)
    Dn = Do * 0.5
    validate_dominated_pair(Dn, Do)


def test_validate_rejects_asymmetric_do():
    Do = random_metric(4, 3)
    bad = Do.copy()
    bad[0, 1] += 1.0
    with pytest.raises(AnalysisError, match="symmetric"):
        validate_dominated_pair(bad * 0.5, bad)


def test_validate_rejects_triangle_violation():
    Do = np.array(
        [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
    )  # 0-2 direct 5 > 1+1
    with pytest.raises(AnalysisError, match="triangle"):
        validate_dominated_pair(Do * 0.5, Do)


def test_validate_rejects_undominated_dn():
    Do = random_metric(5, 4)
    with pytest.raises(AnalysisError, match="dominated"):
        validate_dominated_pair(Do * 1.5, Do)


def test_validate_rejects_negative_dn():
    Do = random_metric(5, 5)
    Dn = Do * 0.5
    Dn[1, 2] = -0.1
    with pytest.raises(AnalysisError, match="non-negative"):
        validate_dominated_pair(Dn, Do)


@pytest.mark.parametrize("seed", range(6))
def test_theorem_318_holds_on_random_dominated_pairs(seed):
    rng = spawn_rng(seed, "dominated")
    Do = random_metric(9, seed + 100)
    Dn = Do * rng.uniform(0.1, 1.0, size=Do.shape)
    Dn = np.minimum(Dn, Dn.T * 0 + Dn)  # keep >= 0 and <= Do
    np.fill_diagonal(Dn, 0.0)
    rep = check_theorem_318(Dn, Do, exact_limit=8)
    assert rep.holds
    assert rep.nn_cost <= rep.bound_value + 1e-9


def test_theorem_318_on_arrow_cost_pair():
    """The actual (c_T, c_M) pair from a simulated schedule satisfies it."""
    from repro.analysis.costs import (
        augmented_nodes_times,
        c_m_matrix,
        c_t_matrix,
        request_distance_matrix,
    )
    from repro.core.requests import RequestSchedule
    from repro.spanning.tree import SpanningTree

    tree = SpanningTree([max(0, i - 1) for i in range(8)], root=0)
    sched = RequestSchedule([(7, 0.0), (3, 1.0), (5, 2.0), (1, 2.5), (6, 4.0)])
    nodes, times = augmented_nodes_times(sched, tree.root)
    D = request_distance_matrix(tree, nodes)
    rep = check_theorem_318(c_t_matrix(D, times), c_m_matrix(D, times))
    assert rep.holds


def test_theorem_318_measured_factors_stay_below_the_bound():
    """Thirty instances — 20 synthetic dominated pairs, 10 arrow (c_T, c_M)
    pairs from random schedules on a chain: the bound holds on every one
    and measured NN/opt never exhausts it."""
    from repro.analysis.costs import (
        augmented_nodes_times,
        c_m_matrix,
        c_t_matrix,
        request_distance_matrix,
    )
    from repro.spanning.tree import SpanningTree
    from repro.workloads.schedules import random_times

    reports = []
    for seed in range(20):
        rng = spawn_rng(seed, "bench-metric")
        Do = metric_from(rng, 10)
        Dn = Do * rng.uniform(0.05, 1.0, size=Do.shape)
        np.fill_diagonal(Dn, 0.0)
        reports.append(check_theorem_318(Dn, Do, exact_limit=9))
    tree = SpanningTree([max(0, i - 1) for i in range(12)], root=0)
    for seed in range(10):
        sched = random_times(12, 9, horizon=15.0, seed=seed)
        nodes, times = augmented_nodes_times(sched, tree.root)
        D = request_distance_matrix(tree, nodes)
        reports.append(
            check_theorem_318(c_t_matrix(D, times), c_m_matrix(D, times), exact_limit=9)
        )
    assert all(r.holds for r in reports)
    factors = [r.ratio / r.bound_factor for r in reports if r.bound_factor > 0]
    assert max(factors) < 1.0


def test_theorem_318_degenerate_all_zero():
    Z = np.zeros((4, 4))
    rep = check_theorem_318(Z, Z)
    assert rep.holds
