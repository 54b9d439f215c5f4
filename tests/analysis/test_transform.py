"""Unit tests for the Lemma 3.11/3.12 idle-time compression oracle
(``tests/transform.py``)."""

import pytest

from repro.analysis.nearest_neighbor import predict_arrow_run
from repro.analysis.optimal import opt_bounds
from repro.core.requests import RequestSchedule
from repro.errors import ScheduleError
from repro.graphs.generators import path_graph
from repro.spanning import tree_diameter
from repro.spanning.tree import SpanningTree
from lemma_oracles import max_ct_edge_on_order
from transform import compress_idle_time, max_gap_slack, shifted


def chain_tree(n):
    return SpanningTree([max(0, i - 1) for i in range(n)], root=0)


def test_idle_gap_is_compressed():
    tree = chain_tree(5)
    # Two bursts separated by a huge idle period.
    sched = RequestSchedule([(1, 0.0), (2, 1.0), (3, 100.0), (4, 101.0)])
    rep = compress_idle_time(tree, sched)
    assert rep.shifts_applied >= 1
    assert rep.total_shift > 0
    assert rep.schedule.max_time() < 100.0
    assert max_gap_slack(tree, rep.schedule) <= 1e-9


def test_compression_is_idempotent():
    tree = chain_tree(5)
    sched = RequestSchedule([(1, 0.0), (4, 50.0)])
    once = compress_idle_time(tree, sched)
    twice = compress_idle_time(tree, once.schedule)
    assert twice.shifts_applied == 0


def test_no_shift_when_requests_tight():
    tree = chain_tree(6)
    sched = RequestSchedule([(5, 0.0), (4, 1.0), (3, 2.0)])
    rep = compress_idle_time(tree, sched)
    assert rep.shifts_applied == 0
    assert rep.schedule.times == sched.times


def test_arrow_cost_invariant_under_compression():
    """Lemma 3.11: arrow's cost is unchanged by the transformation."""
    tree = chain_tree(9)
    sched = RequestSchedule(
        [(8, 0.0), (2, 1.0), (5, 40.0), (7, 41.0), (1, 90.0)]
    )
    before = predict_arrow_run(tree, sched)
    rep = compress_idle_time(tree, sched)
    after = predict_arrow_run(tree, rep.schedule)
    assert after.arrow_cost == pytest.approx(before.arrow_cost)


def test_opt_not_increased_by_compression():
    """Lemma 3.11: the exact offline optimum does not increase."""
    g = path_graph(7)
    tree = chain_tree(7)
    sched = RequestSchedule([(6, 0.0), (1, 1.0), (4, 30.0), (2, 31.0)])
    before = opt_bounds(g, tree, sched, 1.0, exact_limit=10)
    rep = compress_idle_time(tree, sched)
    after = opt_bounds(g, tree, rep.schedule, 1.0, exact_limit=10)
    assert before.exact and after.exact
    assert after.upper <= before.upper + 1e-9


def test_times_remain_nonnegative():
    tree = chain_tree(4)
    sched = RequestSchedule([(3, 20.0), (2, 50.0)])
    rep = compress_idle_time(tree, sched)
    assert all(t >= -1e-12 for t in rep.schedule.times)


def test_lemma_3_13_max_ct_edge_after_compression():
    """On compressed schedules, arrow's largest c_T edge is <= 3 D."""
    tree = chain_tree(10)
    D = tree_diameter(tree)
    from repro.workloads.schedules import random_times

    for seed in range(5):
        sched = random_times(10, 12, horizon=60.0, seed=seed)
        rep = compress_idle_time(tree, sched)
        pred = predict_arrow_run(tree, rep.schedule)
        assert max_ct_edge_on_order(tree, rep.schedule, pred.order) <= 3 * D + 1e-9


def test_empty_schedule_compression():
    tree = chain_tree(3)
    rep = compress_idle_time(tree, RequestSchedule([]))
    assert rep.shifts_applied == 0
    assert max_gap_slack(tree, rep.schedule) == 0.0


def test_shifted_moves_selected_requests():
    s = RequestSchedule([(0, 0.0), (1, 5.0), (2, 9.0)])
    s2 = shifted(s, [1, 2], -3.0)
    assert s2.times == [0.0, 2.0, 6.0]
    # Unshifted schedule is untouched (immutability).
    assert s.times == [0.0, 5.0, 9.0]


def test_shifted_reindexes_canonically():
    s = RequestSchedule([(0, 0.0), (1, 5.0)])
    s2 = shifted(s, [1], -5.0)  # both now at t=0
    assert [r.time for r in s2] == [0.0, 0.0]
    assert sorted(r.rid for r in s2) == [0, 1]


def test_shift_below_zero_still_rejected():
    s = RequestSchedule([(0, 0.0), (1, 5.0)])
    with pytest.raises(ScheduleError):
        shifted(s, [1], -6.0)
