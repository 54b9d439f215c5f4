"""Edge cases across the protocol stack."""


from repro.core.queueing import verify_total_order
from repro.core.requests import RequestSchedule
from repro.core.fast_closed_loop import run_centralized
from repro.core.message import run_arrow
from repro.errors import (
    AnalysisError,
    GraphError,
    NetworkError,
    ProtocolError,
    ReproError,
    ScheduleError,
    SimulationError,
    TreeError,
)
from repro.graphs import complete_graph
from repro.graphs.generators import path_graph
from repro.spanning import balanced_binary_overlay
from repro.spanning.tree import SpanningTree


def chain_tree(n):
    return SpanningTree([max(0, i - 1) for i in range(n)], root=0)


def test_error_hierarchy_rooted_at_repro_error():
    for exc in (
        SimulationError,
        NetworkError,
        GraphError,
        TreeError,
        ProtocolError,
        ScheduleError,
        AnalysisError,
    ):
        assert issubclass(exc, ReproError)
    assert issubclass(TreeError, GraphError)


def test_single_node_network_all_requests_local():
    g = complete_graph(2)  # smallest network with an edge
    tree = balanced_binary_overlay(g, 0)
    sched = RequestSchedule([(0, 0.0), (0, 1.0), (0, 2.0)])
    res = run_arrow(g, tree, sched)
    assert verify_total_order(res) == [0, 1, 2]
    assert res.total_hops == 0
    assert res.total_latency == 0.0


def test_many_duplicate_node_time_requests():
    g = complete_graph(4)
    tree = balanced_binary_overlay(g, 0)
    sched = RequestSchedule([(2, 1.0)] * 8)
    res = run_arrow(g, tree, sched)
    assert len(verify_total_order(res)) == 8
    # First one walks to the root; the rest are local (same node, sink).
    assert sum(1 for r in res.completions.values() if r.hops == 0) == 7


def test_all_nodes_request_at_once_on_a_path():
    n = 12
    g = path_graph(n)
    sched = RequestSchedule([(v, 0.0) for v in range(n)])
    res = run_arrow(g, chain_tree(n), sched)
    order = verify_total_order(res)
    assert len(order) == n
    # The root's own request wins instantly (it holds the sink).
    assert res.latency(order[0]) == 0.0


def test_far_future_request_after_long_idle():
    g = path_graph(5)
    sched = RequestSchedule([(4, 0.0), (1, 10_000.0)])
    res = run_arrow(g, chain_tree(5), sched)
    assert verify_total_order(res) == [0, 1]
    # Latency is the tree distance to the predecessor, not the idle gap.
    assert res.latency(1) == 3.0


def test_interleaved_times_microseconds_apart():
    g = complete_graph(8)
    tree = balanced_binary_overlay(g, 0)
    sched = RequestSchedule([(i, i * 1e-6) for i in range(1, 8)])
    res = run_arrow(g, tree, sched)
    assert len(verify_total_order(res)) == 7


def test_centralized_nonzero_center():
    g = complete_graph(6)
    sched = RequestSchedule([(0, 0.0), (5, 1.0)])
    res = run_centralized(g, 3, sched)
    assert verify_total_order(res) == [0, 1]


def test_request_at_float_integer_boundary_times():
    g = path_graph(4)
    sched = RequestSchedule([(3, 0.9999999), (1, 1.0000001)])
    res = run_arrow(g, chain_tree(4), sched)
    assert len(verify_total_order(res)) == 2
