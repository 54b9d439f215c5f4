"""Unit tests for the Network layer: sends, routing, service times, stats."""

import math

import pytest

from repro.errors import NetworkError
from repro.graphs import complete_graph
from repro.graphs.generators import path_graph
from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import ProtocolNode
from repro.sim.kernel import Simulator


class Recorder(ProtocolNode):
    """Records deliveries with their times."""

    def __init__(self):
        super().__init__()
        self.got = []

    def on_message(self, msg: Message):
        self.got.append((msg.kind, msg.src, self.net.sim.now, msg.hops))


def make_net(graph, **kw):
    net = Network(graph, Simulator(), **kw)
    nodes = [Recorder() for _ in range(graph.num_nodes)]
    net.register_all(nodes)
    return net, nodes


def test_send_link_delivers_with_unit_latency():
    net, nodes = make_net(path_graph(3))
    net.send_link(0, 1, "ping", {"x": 1})
    net.sim.run()
    assert nodes[1].got == [("ping", 0, 1.0, 1)]


def test_send_link_requires_edge():
    net, _ = make_net(path_graph(3))
    with pytest.raises(NetworkError):
        net.send_link(0, 2, "ping")


def test_send_routed_delivers_along_shortest_path():
    net, nodes = make_net(path_graph(5))
    net.send_routed(0, 4, "far")
    net.sim.run()
    kind, src, when, hops = nodes[4].got[0]
    assert (kind, src) == ("far", 0)
    assert when == 4.0  # 4 unit-latency hops
    assert hops == 4


def test_send_routed_to_self_is_immediate_event():
    net, nodes = make_net(path_graph(3))
    net.send_routed(1, 1, "self")
    net.sim.run()
    assert nodes[1].got[0][2] == 0.0


def test_forward_accumulates_hops():
    net, nodes = make_net(path_graph(4))

    class Chain(Recorder):
        def on_message(self, msg):
            super().on_message(msg)
            if self.node_id < 3:
                self.net.forward(msg, self.node_id + 1)

    chain = [Chain() for _ in range(4)]
    net2 = Network(path_graph(4), Simulator())
    net2.register_all(chain)
    net2.send_link(0, 1, "hop")
    net2.sim.run()
    assert chain[3].got[0][3] == 3  # three link traversals accumulated


def test_service_time_serialises_deliveries():
    """Two simultaneous arrivals at one node are processed 1 service apart."""
    g = complete_graph(3)
    net, nodes = make_net(g, service_time=0.5)
    net.send_link(1, 0, "a")
    net.send_link(2, 0, "b")
    net.sim.run()
    times = sorted(t for _, _, t, _ in nodes[0].got)
    assert times == [1.5, 2.0]  # arrival 1.0 + 0.5 service, then +0.5 more


def test_zero_service_time_processes_in_parallel():
    g = complete_graph(3)
    net, nodes = make_net(g)
    net.send_link(1, 0, "a")
    net.send_link(2, 0, "b")
    net.sim.run()
    assert sorted(t for _, _, t, _ in nodes[0].got) == [1.0, 1.0]


def test_negative_service_time_rejected():
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(NetworkError, match=f"^service_time must be finite and >= 0, got {bad}$"):
            Network(path_graph(2), Simulator(), service_time=bad)


def test_stats_count_messages_and_hops():
    net, _ = make_net(path_graph(5))
    net.send_link(0, 1, "x")
    net.send_routed(0, 4, "y")
    net.sim.run()
    assert net.stats.messages_sent == 2
    assert net.stats.link_messages == 1
    assert net.stats.routed_messages == 1
    assert net.stats.hops_total == 5
    d = net.stats.as_dict()
    assert d["messages_sent"] == 2


def test_register_all_validates_length():
    net = Network(path_graph(3), Simulator())
    with pytest.raises(NetworkError):
        net.register_all([Recorder()])


def test_delivery_to_unregistered_node_raises():
    net = Network(path_graph(2), Simulator())
    net.register(0, Recorder())
    net.send_link(0, 1, "x")
    with pytest.raises(NetworkError):
        net.sim.run()


def test_node_accessor():
    net, nodes = make_net(path_graph(2))
    assert net.node(0) is nodes[0]
    empty = Network(path_graph(2), Simulator())
    with pytest.raises(NetworkError):
        empty.node(0)


def test_tracer_sees_sends_and_deliveries():
    # NetworkStats is the network's one set of counters (the test keeps
    # its historical name).
    net = Network(path_graph(2), Simulator())
    net.register_all([Recorder(), Recorder()])
    net.send_link(0, 1, "x")
    assert net.stats.messages_sent == 1  # counted at send, before delivery
    net.sim.run()
    assert net.stats.messages_sent == 1
    assert net.stats.link_messages == 1


def test_routed_unreachable_raises():
    from repro.graphs.graph import Graph
    g = Graph(3)
    g.add_edge(0, 1)
    net = Network(g, Simulator())
    net.register_all([Recorder() for _ in range(3)])
    with pytest.raises(NetworkError):
        net.send_routed(0, 2, "x")
