"""Unit tests for the Network layer: sends, routing, service times, stats,
the Router, and routed runs on multi-hop graphs pinned by digest."""

import hashlib
import json
import math
import random

import pytest

from repro.apps.directory import arrow_directory, home_directory
from repro.core.fast_closed_loop import closed_loop_runner, run_centralized
from repro.errors import NetworkError
from repro.graphs import complete_graph
from repro.graphs.generators import (
    grid_graph,
    hypercube_graph,
    path_graph,
    random_geometric_graph,
)
from repro.core.message import Message, Network, ProtocolNode, Simulator
from repro.graphs.graph import Graph
from repro.graphs.shortest_paths import dijkstra
from repro.net.latency import UniformLatency, UnitLatency, WeightLatency
from repro.net.router import Router
from repro.sim.rng import spawn_rng
from repro.spanning.construct import bfs_tree
from repro.workloads.schedules import poisson
from latency_models import ExponentialCappedLatency


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
    g = Graph(3)
    g.add_edge(0, 1)
    net = Network(g, Simulator())
    net.register_all([Recorder() for _ in range(3)])
    with pytest.raises(NetworkError):
        net.send_routed(0, 2, "x")


def _shuffled_connected_unit_graph(n: int, seed: int) -> Graph:
    """A connected unit-weight graph whose rows are filled in a random
    order, so a route that followed row order instead of node ids would
    show: a random tree plus random chords, shuffled and reoriented."""
    rng = random.Random(seed)
    pairs = [(v, rng.randrange(v)) for v in range(1, n)]
    pairs += [(u, v) for u in range(n) for v in range(u + 2, n) if rng.random() < 0.15]
    pairs = list(dict.fromkeys(tuple(sorted(e)) for e in pairs))
    rng.shuffle(pairs)
    pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
    return Graph.from_columns(n, [u for u, _ in pairs], [v for _, v in pairs], 1.0)


def _detour_graph() -> Graph:
    """K_6 whose edges {0, 3} and {1, 4} outweigh a two-hop path around them."""
    g = complete_graph(6)
    g.add_edge(0, 3, 3.0)
    g.add_edge(1, 4, 2.5)
    return g


# ----------------------------------------------------------------------
# Routed runs on multi-hop graphs, pinned by digest
# ----------------------------------------------------------------------
# Every benchmark workload and parity check runs on complete graphs, where
# each route is one hop, so fast == message parity cannot see a routing
# change.  These digests were recorded before the network and the fast
# closed loops shared one router; they pin every routed delay, hop count
# and latency draw of the message-level runs on graphs with multi-hop
# shortest paths, unit and weighted; the fast closed loops must reproduce
# the closed-loop digests.
ROUTED_GRAPHS = {
    "grid5x5": lambda: grid_graph(5, 5),
    "path9w2": lambda: path_graph(9, weight=2.0),
    "geometric24": lambda: random_geometric_graph(24, 0.35, euclidean_weights=True),
    # Router-only shapes (no pinned digest): one-hop ties, many equal
    # shortest paths, rows out of id order, and a weighted detour.
    "complete8": lambda: complete_graph(8),
    "hypercube4": lambda: hypercube_graph(4),
    "shuffled20": lambda: _shuffled_connected_unit_graph(20, seed=3),
    "detour6": _detour_graph,
}
ROUTED_LATENCIES = {
    "unit": UnitLatency,
    "weight": WeightLatency,
    "uniform": lambda: UniformLatency(0.2, 1.0),
    "expcapped": ExponentialCappedLatency,
}


def _routed_run(runner: str, graph, latency, seed: int, engine: str) -> dict:
    """One run, reduced to the fields routing decides."""
    n = graph.num_nodes
    kw = {"latency": latency, "seed": seed}
    if runner == "closed_loop_centralized":
        run = closed_loop_runner("centralized", engine)
        r = run(graph, n // 2, requests_per_proc=2, **kw)
    elif runner == "closed_loop_arrow":
        run = closed_loop_runner("arrow", engine)
        r = run(graph, bfs_tree(graph), requests_per_proc=2, **kw)
    elif runner == "arrow_directory":
        r = arrow_directory(graph, bfs_tree(graph), acquisitions_per_proc=2, **kw)
    elif runner == "home_directory":
        r = home_directory(graph, n // 2, acquisitions_per_proc=2, **kw)
    else:
        sched = poisson(n, 3 * n, 2.0, seed=seed)
        r = run_centralized(graph, n // 2, sched, **kw)
        return {
            "makespan": r.makespan,
            "rids": r.rids,
            "hops": r.hops,
            "latencies": r.latencies,
            "messages_sent": r.network_stats["messages_sent"],
        }
    out = {"makespan": r.makespan, "messages_sent": r.messages_sent}
    if hasattr(r, "intervals"):
        out["intervals"] = r.intervals
    else:
        out.update(
            hops=r.hops,
            latencies=r.latencies,
            issue_times=r.issue_times,
            ack_times=r.ack_times,
        )
    return out


def _routed_digest(key: str, engine: str = "message") -> str:
    runner, graph_name, latency_name = key.split("/")
    graph = ROUTED_GRAPHS[graph_name]()
    runs = [
        _routed_run(runner, graph, ROUTED_LATENCIES[latency_name](), seed, engine)
        for seed in range(3)
    ]
    return hashlib.sha256(json.dumps(runs).encode()).hexdigest()


PINNED_ROUTED_DIGESTS = {
    "closed_loop_centralized/grid5x5/unit":
        "ab45f943d870e9c0ff6ed1b1188f93bd393a3c4fe2ed350dc4eb7918d486c86d",
    "closed_loop_centralized/grid5x5/weight":
        "ab45f943d870e9c0ff6ed1b1188f93bd393a3c4fe2ed350dc4eb7918d486c86d",
    "closed_loop_centralized/grid5x5/uniform":
        "8f846dad96ec098c1efe3644cb614bf016cdd684268ec0bcfcac63527a6b962c",
    "closed_loop_centralized/grid5x5/expcapped":
        "3038a17a1765d3ed56d8791913b988436eca679d62db10ebfd3061e5841d8d30",
    "closed_loop_centralized/path9w2/unit":
        "ee3dd200de4e2c6218aa4ee2862a2700dc64006d661f7286f7c60f902db4ef0f",
    "closed_loop_centralized/path9w2/weight":
        "26f6766d8e3fee8e893a77f09a8368533e891f195f8e4479d859dac0fc1467b4",
    "closed_loop_centralized/path9w2/uniform":
        "df87cc3a5f97922189313a439a063030481f1bf6db5df4c1f12557e25a0f8487",
    "closed_loop_centralized/path9w2/expcapped":
        "1bf33504dd0e1eb6137b1c3910b6cdb7e00cec733091ebdc5236adcd2a54862b",
    "closed_loop_centralized/geometric24/unit":
        "20e27b4c65065b6fd0c6ee69f3c29a7846fe0e3d293c1d624a86142ef3c9812f",
    "closed_loop_centralized/geometric24/weight":
        "c23db7d589e1d319a775e695eaa7fdbf5cb892040a80fa3bf097b0190b9ea8e9",
    "closed_loop_centralized/geometric24/uniform":
        "460bf1a17c87406795bae9fd9c549b5b98a4d07fd79cb48e40e2ac849d1950b1",
    "closed_loop_centralized/geometric24/expcapped":
        "2ed13b997e7aa77e329a7e61e71c1e605768982bea3ae086b1f7258b6fbc65a5",
    "closed_loop_arrow/grid5x5/unit":
        "fcf722b84569296431e1d3655fb57443096c8557aba11835cd3a15663813883c",
    "closed_loop_arrow/grid5x5/weight":
        "fcf722b84569296431e1d3655fb57443096c8557aba11835cd3a15663813883c",
    "closed_loop_arrow/grid5x5/uniform":
        "bd0d0a70fb7256cda7ff9718055365cc2d0b24577cc234133db7b11faa3c6946",
    "closed_loop_arrow/grid5x5/expcapped":
        "068ee4f12a714f2c698fc3424ee09aaa566daf14df076f94a7c732e66c6cd2e5",
    "closed_loop_arrow/path9w2/unit":
        "afb0022431c6c629b2bb0af50f413d813213826c29e3108d0bd05945a7d8569e",
    "closed_loop_arrow/path9w2/weight":
        "1ed63907f400a339d7aa634b39adec25e6048e1fe2150a0e6aab1391dff4a68e",
    "closed_loop_arrow/path9w2/uniform":
        "f5a5b562a61e90d6c02c7e101f4e3fd775b952f3cae91fed499c3df79b2afcb3",
    "closed_loop_arrow/path9w2/expcapped":
        "19dd7aa3f30bfd931bedd92e195bbbedc6d76e7bd91b5f385b95b521daebd3c8",
    "closed_loop_arrow/geometric24/unit":
        "b37caebee536c0fe39b2eb2160061db435ceeb43d2a4a632910bd8308d2516cc",
    "closed_loop_arrow/geometric24/weight":
        "4c53923f7a3a55ba70a1cc9ab616aa3a7fea311ebebcb0809df7fb64004c163a",
    "closed_loop_arrow/geometric24/uniform":
        "ea5ad01f8a6ecf70a3c3a88208530f72891b434a04dc97ed6afb10b0de137d4d",
    "closed_loop_arrow/geometric24/expcapped":
        "6cfcb74c487e8695cb1eaaa97c2c8d69ec521672b7d720938762cb7ebbe05cf5",
    "arrow_directory/grid5x5/unit":
        "feedb40e4ad47296ab510550789abb1b9a4c763a3af9cfb3ead05e0c5e257929",
    "arrow_directory/grid5x5/weight":
        "feedb40e4ad47296ab510550789abb1b9a4c763a3af9cfb3ead05e0c5e257929",
    "arrow_directory/grid5x5/uniform":
        "fe63b3824f64b647d9e7ce66a6a3d871965463d636ffbe60dfd244e0c2ccc6a5",
    "arrow_directory/grid5x5/expcapped":
        "36f0b9d924abca4b81bbc5c7958a58377df535575ac058cda6dc69940a425ad1",
    "arrow_directory/path9w2/unit":
        "850897bf3bcef82cd0baa09b605807de22be2006c9e0922509439c2c633fbb96",
    "arrow_directory/path9w2/weight":
        "4fe3094a115c8c3c4cbae43b7f368cf1778c245100c10a23ac7df3eb6982e6fa",
    "arrow_directory/path9w2/uniform":
        "eaee1755fbc388554fa6234244e9784e314f3eec59f53819757dd527e84fd388",
    "arrow_directory/path9w2/expcapped":
        "dbe57bbe7e6f1ddd879411e27e5101c2f0d7be2cfbdb926dd50b1e724494bea0",
    "arrow_directory/geometric24/unit":
        "3c1556e231f8555d170884537ca6d94b4865ef93205ca70b4fe4f083b9efbdc4",
    "arrow_directory/geometric24/weight":
        "62099dc7201f73911259821687b491c0cf1b7ce91842b7cb1fb81dd1240373d2",
    "arrow_directory/geometric24/uniform":
        "ebed68891a4c2ff85323074f408eec34731bb02a8635b87b21fe57e1a7e545f0",
    "arrow_directory/geometric24/expcapped":
        "564ac02899da13b5cb2c1ae19d9fa292bf82ddc07cab550e83e6fc2d7f61fa20",
    "home_directory/grid5x5/unit":
        "14eb7fa7e989832d7dce45db64187f34bd14df6a7b4b22f0e0ae9f7e91d6ac8e",
    "home_directory/grid5x5/weight":
        "14eb7fa7e989832d7dce45db64187f34bd14df6a7b4b22f0e0ae9f7e91d6ac8e",
    "home_directory/grid5x5/uniform":
        "c187d5a9536a617f0194f81315b4d29de2693194e051b1525a5a6d55012b8483",
    "home_directory/grid5x5/expcapped":
        "73e24fa107e166640f30acc4b0a9196a8224c9d349bb40b6238c53953aa43f07",
    "home_directory/path9w2/unit":
        "9d0066214b0ee48c4f991b76f247d7515eee64f0bdcaa73a179630781164d2b2",
    "home_directory/path9w2/weight":
        "75d48aab1fa7def3d0d9c813ee3e379c287e23176099e0db7d3ba398e42c2b8e",
    "home_directory/path9w2/uniform":
        "a075ba8d2e8f19e802af08433ce224c3b295a283f9623b1241e826afccb9136c",
    "home_directory/path9w2/expcapped":
        "f6465d5f59d47d41b8d7cffa3d1255298dbc02a577fbf771145476d689f65d61",
    "home_directory/geometric24/unit":
        "d1b5d20013fe8c7bd876184c9a3777824d8112d732c8f5187dfa36e808cb850b",
    "home_directory/geometric24/weight":
        "aff370d66f2b72994706857c3654b53e415c79340c4d6f0093f1a40e1b24be49",
    "home_directory/geometric24/uniform":
        "5219baf930624d7da92a66fba2d2dcef406ab7610b0d246724dab817f2ab7d0c",
    "home_directory/geometric24/expcapped":
        "44014679fd0f5cb66b2ecc9cab0b4ad49937aa198839df483e852d32b37770e8",
    "run_centralized/grid5x5/unit":
        "16338388d8aad13a9f97522aa0e2847a01ac5a47f39143beddfe74c0c4535d67",
    "run_centralized/grid5x5/weight":
        "16338388d8aad13a9f97522aa0e2847a01ac5a47f39143beddfe74c0c4535d67",
    "run_centralized/grid5x5/uniform":
        "193a9cd14ec39fc0321e20ff1f77ac8d52116f438533488ec5447bcb4fc72067",
    "run_centralized/grid5x5/expcapped":
        "fd47b1dbb2d66edd98f6d8c2374be578aea06b4ffd2e2988265f93892036e70b",
    "run_centralized/path9w2/unit":
        "f5d683730cfb3b13a3b792815e6863b493240d06f52062deb26eb6744484dc7b",
    "run_centralized/path9w2/weight":
        "a1b0b9b95b2630ff946a85f05de6182434d1df97c757aa4426cefe14f9c9fca4",
    "run_centralized/path9w2/uniform":
        "65704c477dc4bf60acc3f21c53a3940cb9978d61318f8d4e040aa96df70cedb6",
    "run_centralized/path9w2/expcapped":
        "cf4b8f0812f32a6af1199db6ce91cbe15384e2cfb11f58b3c44ee375e1225028",
    "run_centralized/geometric24/unit":
        "e01b44956eb39947f9cf9f61da913527b6c99e316f5ee9e884c7a18699e489e9",
    "run_centralized/geometric24/weight":
        "ecf84a4cc381097b04eb6b6a281181fb40f6678d4c188e62de303e68c6f6f91b",
    "run_centralized/geometric24/uniform":
        "44cd2c9b6449164be41917f237a3cec1620484b48d8cf74545bfb8aa51f8e794",
    "run_centralized/geometric24/expcapped":
        "9f4a3e1c914a2dff404d94b43abde2775d3497224cd1578e887545a54ab7a836",
}


@pytest.mark.parametrize("key", sorted(PINNED_ROUTED_DIGESTS))
def test_routed_runs_match_pinned_digests(key):
    assert _routed_digest(key) == PINNED_ROUTED_DIGESTS[key]


@pytest.mark.parametrize(
    "key", sorted(k for k in PINNED_ROUTED_DIGESTS if k.startswith("closed_loop"))
)
def test_fast_closed_loops_match_pinned_digests(key):
    assert _routed_digest(key, "fast") == PINNED_ROUTED_DIGESTS[key]


# ----------------------------------------------------------------------
# Router: the one source of routed delays
# ----------------------------------------------------------------------
def _reference_delay_hops(graph, latency, rng, src, dst):
    """Dijkstra, a predecessor walk, then one sample per edge in path order."""
    _, pred = dijkstra(graph, src)
    path = [dst]
    while path[-1] != src:
        path.append(pred[path[-1]])
    path.reverse()
    delay = 0.0
    for a, b in zip(path, path[1:]):
        delay += latency.sample(a, b, graph.weight(a, b), rng)
    return delay, len(path) - 1


@pytest.mark.parametrize("latency_name", sorted(ROUTED_LATENCIES))
@pytest.mark.parametrize("graph_name", sorted(ROUTED_GRAPHS))
def test_router_matches_reference_sum_and_draws(graph_name, latency_name):
    graph = ROUTED_GRAPHS[graph_name]()
    latency = ROUTED_LATENCIES[latency_name]()
    router = Router(graph, latency, spawn_rng(7, "network-latency"))
    ref_rng = spawn_rng(7, "network-latency")
    n = graph.num_nodes
    # Every ordered pair, then again in reverse: the second pass is
    # served from the router's path (and, if deterministic, delay) caches.
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    for src, dst in pairs + pairs[::-1]:
        want = _reference_delay_hops(graph, latency, ref_rng, src, dst)
        assert router.delay_hops(src, dst) == want, (src, dst)
    assert router.rng.bit_generator.state == ref_rng.bit_generator.state


def test_router_routes_around_a_longer_direct_edge():
    router = Router(_detour_graph(), UnitLatency(), spawn_rng(0, "network-latency"))
    assert router.delay_hops(0, 3) == (2.0, 2)
    assert router.delay_hops(4, 1) == (2.0, 2)
    assert router.delay_hops(0, 1) == (1.0, 1)


def test_router_self_route_is_free():
    rng = spawn_rng(0, "network-latency")
    before = rng.bit_generator.state
    router = Router(path_graph(3, weight=2.0), UniformLatency(0.2, 1.0), rng)
    assert router.delay_hops(1, 1) == (0.0, 0)
    assert rng.bit_generator.state == before


def test_router_unreachable_names_both_nodes():
    g = Graph(3)
    g.add_edge(0, 1)
    router = Router(g, UnitLatency(), spawn_rng(0, "network-latency"))
    assert router.delay_hops(0, 1) == (1.0, 1)
    with pytest.raises(NetworkError, match=r"^node 2 unreachable from 0$"):
        router.delay_hops(0, 2)
