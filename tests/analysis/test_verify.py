"""Unit tests for the lemma checkers, ``repro.analysis.verify`` and the
``tests/lemma_oracles.py`` ones (positive and negative cases)."""

import numpy as np
import pytest

from repro.analysis.nearest_neighbor import predict_arrow_run
from repro.analysis.verify import check_lemma_3_8, is_nn_path
from repro.core.requests import RequestSchedule
from repro.core.message import run_arrow
from repro.graphs.generators import path_graph
from repro.spanning.tree import SpanningTree
from lemma_oracles import (
    arrow_cost_of_order,
    check_fact_3_6,
    check_lemma_3_9,
    lemma_3_10_identity_gap,
    max_ct_edge_on_order,
)


def chain_tree(n):
    return SpanningTree([max(0, i - 1) for i in range(n)], root=0)


@pytest.fixture
def instance():
    tree = chain_tree(8)
    sched = RequestSchedule([(7, 0.0), (3, 1.0), (5, 2.5), (1, 3.0)])
    return path_graph(8), tree, sched


def test_is_nn_path_accepts_greedy_and_rejects_others():
    C = np.array(
        [
            [0.0, 1.0, 5.0],
            [1.0, 0.0, 2.0],
            [5.0, 2.0, 0.0],
        ]
    )
    assert is_nn_path([0, 1, 2], C)
    assert not is_nn_path([0, 2, 1], C)
    assert not is_nn_path([0, 1], C)  # incomplete


def test_is_nn_path_tolerates_ties():
    C = np.array(
        [
            [0.0, 2.0, 2.0],
            [2.0, 0.0, 1.0],
            [2.0, 1.0, 0.0],
        ]
    )
    assert is_nn_path([0, 1, 2], C)
    assert is_nn_path([0, 2, 1], C)


def test_lemma_3_8_on_simulated_run(instance):
    g, tree, sched = instance
    res = run_arrow(g, tree, sched)
    assert check_lemma_3_8(tree, sched, res.order)


def test_lemma_3_8_rejects_wrong_order(instance):
    g, tree, sched = instance
    res = run_arrow(g, tree, sched)
    wrong = list(reversed(res.order))
    assert not check_lemma_3_8(tree, sched, wrong)


def test_lemma_3_9_on_simulated_run(instance):
    g, tree, sched = instance
    res = run_arrow(g, tree, sched)
    assert check_lemma_3_9(tree, sched, res.order)


def test_lemma_3_9_rejects_time_inversion():
    tree = chain_tree(4)
    # (0, t=0) and (0, t=99): same node, far apart in time.
    sched = RequestSchedule([(0, 0.0), (0, 99.0)])
    assert not check_lemma_3_9(tree, sched, [1, 0])


def test_fact_3_6_nonnegative(instance):
    _, tree, sched = instance
    assert check_fact_3_6(tree, sched)


def test_lemma_3_10_gap_zero_on_arrow_order(instance):
    g, tree, sched = instance
    res = run_arrow(g, tree, sched)
    assert lemma_3_10_identity_gap(tree, sched, res.order) == pytest.approx(0.0)


def test_arrow_cost_of_order_matches_total_latency(instance):
    g, tree, sched = instance
    res = run_arrow(g, tree, sched)
    assert arrow_cost_of_order(tree, sched, res.order) == pytest.approx(
        res.total_latency
    )


def test_max_ct_edge_on_trivial_order():
    tree = chain_tree(3)
    sched = RequestSchedule([(2, 0.0)])
    pred = predict_arrow_run(tree, sched)
    assert max_ct_edge_on_order(tree, sched, pred.order) == pytest.approx(2.0)
