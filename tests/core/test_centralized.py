"""Unit tests for the §5 centralized baseline."""

import pytest

from repro.core.queueing import verify_total_order
from repro.core.requests import RequestSchedule
from repro.core.fast_closed_loop import run_centralized
from repro.graphs import complete_graph
from repro.graphs.generators import path_graph
from repro.core.message import closed_loop_centralized
from repro.workloads.schedules import poisson


def test_requests_ordered_by_arrival_at_center():
    g = complete_graph(5)
    sched = RequestSchedule([(1, 0.0), (2, 0.5), (3, 1.2)])
    res = run_centralized(g, 0, sched)
    assert verify_total_order(res) == [0, 1, 2]


def test_center_own_request_skips_first_leg():
    g = complete_graph(4)
    sched = RequestSchedule([(0, 0.0)])
    res = run_centralized(g, 0, sched)
    rec = res.completions[0]
    assert rec.informed_node == 0
    assert rec.completed_at == 0.0
    assert rec.hops == 0


def test_two_messages_per_request_in_reply_mode():
    res = closed_loop_centralized(complete_graph(6), 0, requests_per_proc=3)
    # creq + queue_reply per non-centre request; the centre's own requests
    # send only the reply, to itself.
    assert res.messages_sent == 2 * 5 * 3 + 3


def test_inform_mode_completion_at_predecessor_issuer():
    g = complete_graph(5)
    sched = RequestSchedule([(1, 0.0), (2, 10.0)])
    res = run_centralized(g, 0, sched)
    # Request 1 queued behind request 0 -> node 1 (issuer of 0) informed.
    assert res.completions[1].informed_node == 1


def test_reply_mode_completion_at_center():
    res = closed_loop_centralized(complete_graph(5), 0, requests_per_proc=1)
    # A request completes when its creq reaches the centre (one hop), not
    # when an inform reaches its predecessor's issuer (two).
    assert res.latencies == [0.0, 1.0, 1.0, 1.0, 1.0]
    assert res.hops == [0, 1, 1, 1, 1]


def test_latency_includes_both_legs():
    # Path graph: distances to the centre vary.
    g = path_graph(5)
    sched = RequestSchedule([(4, 0.0), (3, 20.0)])
    res = run_centralized(g, 0, sched)
    # r0: 4 hops to centre, inform travels back to centre? predecessor is
    # the virtual root held at the centre: inform goes centre->centre.
    assert res.latency(0) == 4.0
    # r1: 3 hops to centre, then inform centre -> node 4 (4 hops).
    assert res.latency(1) == 7.0


def test_creq_to_wrong_node_raises():
    from repro.core.message import CentralizedNode, Message, Network, Simulator
    from repro.errors import ProtocolError

    net = Network(complete_graph(3), Simulator())
    nodes = [CentralizedNode(0, lambda *a: None) for _ in range(3)]
    net.register_all(nodes)
    nodes[0].init_center()
    with pytest.raises(ProtocolError):
        nodes[1].on_message(Message("creq", 2, 1, {"rid": 0, "origin": 2}))


def test_queue_reply_without_app_handler_raises():
    """A stray ``queue_reply`` is a protocol error, not silently dropped."""
    from repro.core.message import CentralizedNode, Message, Network, Simulator
    from repro.errors import ProtocolError

    net = Network(complete_graph(3), Simulator())
    nodes = [CentralizedNode(0, lambda *a: None) for _ in range(3)]
    net.register_all(nodes)
    nodes[0].init_center()
    for node in nodes:
        assert node.app_handler is None
        with pytest.raises(ProtocolError, match="queue_reply"):
            node.on_message(Message("queue_reply", 0, node.node_id, {"rid": 0}))


def test_concurrent_requests_all_complete(k16):
    sched = poisson(16, 120, rate=8.0, seed=3)
    res = run_centralized(k16, 0, sched, service_time=0.05)
    assert len(verify_total_order(res)) == 120


@pytest.mark.parametrize("center", [9, -1])
def test_out_of_range_center_rejected(center):
    """One exception type and text on every centralized driver, raised
    before anything runs (unchecked, 9 is an IndexError inside the run and
    -1 initialises the last node as centre, then fails in routing)."""
    from repro.core.fast_closed_loop import closed_loop_centralized_fast
    from repro.errors import NetworkError
    from repro.core.message import closed_loop_centralized

    g = complete_graph(4)
    text = rf"^center {center} out of range for 4 nodes$"
    with pytest.raises(NetworkError, match=text):
        run_centralized(g, center, RequestSchedule([(1, 0.0)]))
    for closed in (closed_loop_centralized, closed_loop_centralized_fast):
        with pytest.raises(NetworkError, match=text):
            closed(g, center, requests_per_proc=1)
