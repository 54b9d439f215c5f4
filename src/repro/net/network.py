"""The network: graph + simulator + protocol nodes.

:class:`Network` wires everything together:

* **single-hop sends** (:meth:`send_link`) cross one physical link after
  one latency draw — the only kind of send the arrow protocol itself
  performs (its messages hop between spanning-tree neighbours).  A link
  keeps no per-link state: arrow never puts two queue messages on one
  tree edge at once, so none can overtake another
  (``tests/small_models.py`` and :class:`repro.monitors.ArrowMonitor`
  assert it), and no other protocol here sends over links;
* **routed sends** (:meth:`send_routed`) deliver along a shortest path of
  ``G`` with the summed per-edge delays — used by the centralized baseline
  and by application-level replies (object hand-off, completion notices),
  which the paper routes over the network rather than the tree.  A routed
  send is one :meth:`Router.delay_hops` call on the network's
  :class:`Router`, which finds shortest paths by Dijkstra, or by BFS on
  unit weights (the same paths), caches each ``(src, dst)`` route (its
  delay for a deterministic latency model, else its path) and is the same
  class the fast closed loops route through;
* an optional **per-node service time** serialises message handling at each
  node, modelling CPU occupancy.  The synchronous analysis model (§3.1)
  corresponds to ``service_time == 0`` ("a node can process up to deg(v)
  messages in a time step"); the Fig. 10 experiment's centralized bottleneck
  appears when the service time is positive.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import NetworkError, require_time
from repro.graphs.graph import Graph
from repro.graphs.shortest_paths import bfs_predecessors, dijkstra
from repro.net.latency import LatencyModel, UnitLatency
from repro.net.message import Message
from repro.net.node import ProtocolNode
from repro.sim.kernel import Simulator
from repro.sim.rng import spawn_rng

if TYPE_CHECKING:
    import numpy as np

__all__ = ["Network", "NetworkStats", "Router"]


class NetworkStats:
    """Aggregate message counters for one run."""

    __slots__ = ("messages_sent", "link_messages", "routed_messages", "hops_total")

    def __init__(self) -> None:
        self.messages_sent = 0
        self.link_messages = 0
        self.routed_messages = 0
        self.hops_total = 0

    def as_dict(self) -> dict[str, Any]:
        """Counters as a plain dict (for experiment records)."""
        return {
            "messages_sent": self.messages_sent,
            "link_messages": self.link_messages,
            "routed_messages": self.routed_messages,
            "hops_total": self.hops_total,
        }


class Router:
    """Shortest-path routing over ``G``: the one source of routed delays.

    Caches the predecessor array per source — Dijkstra's, or on a
    unit-weighted graph BFS's (:func:`~repro.graphs.shortest_paths.bfs_predecessors`
    returns Dijkstra's exact ``pred`` there, so every path is the same),
    decided once at the first route — and one route per ``(src, dst)``
    pair: for a deterministic latency model the summed path delay and hop
    count, else the path's edge columns, which a stochastic model
    re-samples per send, edge by edge in path order, from the one ``rng``
    it is given.  :class:`Network` routes :meth:`~Network.send_routed`
    through one, and the fast closed loops
    (:mod:`repro.core.fast_closed_loop`) build one over the same
    ``"network-latency"`` stream.
    """

    __slots__ = (
        "graph", "latency", "rng", "_stochastic", "_predecessors", "_sssp",
        "_routes", "_values",
    )

    def __init__(self, graph: Graph, latency: LatencyModel, rng) -> None:
        self.graph = graph
        self.latency = latency
        self.rng = rng
        self._stochastic = latency.stochastic
        self._predecessors = None  # bfs_predecessors or dijkstra, at the first route
        self._sssp: dict[int, list[int]] = {}
        self._routes: dict[tuple[int, int], tuple] = {}
        self._values: dict[tuple[float, int], tuple[float, int]] = {}

    def _path_edges(
        self, src: int, dst: int
    ) -> tuple[list[int], list[int], list[float]]:
        pred = self._sssp.get(src)
        if pred is None:
            if self._predecessors is None:
                self._predecessors = (
                    bfs_predecessors if self.graph.is_unit_weighted() else dijkstra
                )
            _, pred = self._predecessors(self.graph, src)
            self._sssp[src] = pred
        path = [dst]
        while path[-1] != src:
            nxt = pred[path[-1]]
            if nxt < 0:
                raise NetworkError(f"node {dst} unreachable from {src}")
            path.append(nxt)
        path.reverse()
        srcs = path[:-1]
        dsts = path[1:]
        return srcs, dsts, self.graph.edge_weights(srcs, dsts)

    def _sample(
        self, srcs: list[int], dsts: list[int], weights: list[float]
    ) -> tuple[float, int]:
        sample = self.latency.sample
        rng = self.rng
        delay = 0.0
        for a, b, w in zip(srcs, dsts, weights):
            delay += sample(a, b, w, rng)
        return delay, len(srcs)

    def delay_hops(self, src: int, dst: int) -> tuple[float, int]:
        """Summed per-edge delay and hop count of one routed send."""
        key = (src, dst)
        route = self._routes.get(key)
        if route is None:
            route = self._path_edges(src, dst)
            if not self._stochastic:
                route = self._sample(*route)
                # Deterministic routes repeat one value many times (every
                # one-hop unit route is (1.0, 1)): keep one tuple per value.
                route = self._values.setdefault(route, route)
            self._routes[key] = route
        if self._stochastic:
            return self._sample(*route)
        return route


class Network:
    """Message-passing network over a graph, driven by a simulator."""

    def __init__(
        self,
        graph: Graph,
        sim: Simulator,
        latency: LatencyModel | None = None,
        *,
        seed: int = 0,
        service_time: float = 0.0,
    ) -> None:
        self.service_time = require_time("service_time", service_time, NetworkError)
        self.graph = graph
        self.sim = sim
        self.latency = latency if latency is not None else UnitLatency()
        self.rng: np.random.Generator = spawn_rng(seed, "network-latency")
        self._router = Router(graph, self.latency, self.rng)
        self.stats = NetworkStats()

        self._nodes: list[ProtocolNode | None] = [None] * graph.num_nodes
        # Sequential-service state: when the next message may begin service.
        self._busy_until: list[float] = [0.0] * graph.num_nodes

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def register(self, node_id: int, node: ProtocolNode) -> None:
        """Install the protocol state machine for one node."""
        if not 0 <= node_id < self.graph.num_nodes:
            raise NetworkError(f"node {node_id} out of range")
        self._nodes[node_id] = node
        node.attach(self, node_id)

    def register_all(self, nodes: list[ProtocolNode]) -> None:
        """Install one state machine per node, by index."""
        if len(nodes) != self.graph.num_nodes:
            raise NetworkError(
                f"need {self.graph.num_nodes} nodes, got {len(nodes)}"
            )
        for i, nd in enumerate(nodes):
            self.register(i, nd)

    def node(self, node_id: int) -> ProtocolNode:
        """The registered state machine at ``node_id``."""
        nd = self._nodes[node_id]
        if nd is None:
            raise NetworkError(f"no protocol node registered at {node_id}")
        return nd

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send_link(
        self, src: int, dst: int, kind: str, payload: dict[str, Any] | None = None
    ) -> Message:
        """Send one message over the physical link ``src -> dst``."""
        return self._send_link(src, dst, kind, payload or {}, 0)

    def send_routed(
        self, src: int, dst: int, kind: str, payload: dict[str, Any] | None = None
    ) -> Message:
        """Send a message along a shortest ``G``-path from ``src`` to ``dst``.

        Delivery happens once, after the summed per-edge delays; the hop
        count records the path length.  A message to self delivers after
        zero delay (still as its own atomic event).
        """
        delay, hops = self._router.delay_hops(src, dst)
        msg = Message(kind, src, dst, payload or {}, hops)
        stats = self.stats
        stats.messages_sent += 1
        stats.routed_messages += 1
        stats.hops_total += hops
        self.sim.call_in(delay, self._arrive, msg)
        return msg

    def forward(self, msg: Message, new_dst: int) -> Message:
        """Forward an in-flight logical operation one more link hop.

        Creates a fresh message that inherits the payload and accumulated
        hop count; arrow uses this as queue messages chase the sink.
        """
        return self._send_link(msg.dst, new_dst, msg.kind, msg.payload, msg.hops)

    def _send_link(
        self, src: int, dst: int, kind: str, payload: dict[str, Any], hops: int
    ) -> Message:
        """The one link-send path; ``hops`` is the count inherited so far."""
        if not self.graph.has_edge(src, dst):
            raise NetworkError(f"no link between {src} and {dst}")
        msg = Message(kind, src, dst, payload, hops + 1)
        self.stats.messages_sent += 1
        self.stats.link_messages += 1
        self.stats.hops_total += 1
        delay = self.latency.sample(src, dst, self.graph.weight(src, dst), self.rng)
        self.sim.call_in(delay, self._arrive, msg)
        return msg

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    def _arrive(self, msg: Message) -> None:
        """Message reached its destination; apply the service-time model."""
        if self.service_time == 0.0:
            self._dispatch(msg)
            return
        sim, busy, dst = self.sim, self._busy_until, msg.dst
        begin = busy[dst] if busy[dst] > sim.now else sim.now
        busy[dst] = finish = begin + self.service_time
        sim.call_at(finish, self._dispatch, msg)

    def _dispatch(self, msg: Message) -> None:
        node = self._nodes[msg.dst]
        if node is None:
            raise NetworkError(f"message {msg.kind} delivered to empty node {msg.dst}")
        node.on_message(msg)
