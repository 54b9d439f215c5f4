"""The open-loop baselines at message level: the oracle of the flat loop.

:func:`repro.core.fast_closed_loop.run_centralized` (§5's centralized
queue) and :func:`~repro.core.fast_closed_loop.run_adaptive` (the §1.1
NTA/Ivy pointers) run as stages of ``core.fast_closed_loop._central_loop``.
The message versions below are what they replay: protocol nodes on
:class:`~repro.net.network.Network`, driven by
:class:`~repro.sim.kernel.Simulator`, one object per node, under the
open-loop harness :func:`run_open_loop_message` (one initiation event per
request, in schedule order).  ``tests/small_models.py`` runs both engines
on every instance of its ``open-central`` and ``open-adaptive`` axes and
asserts equal results.

:func:`run_centralized_message` and :func:`run_adaptive_message` take the
flat runners' arguments and return the same
:class:`~repro.core.queueing.RunResult`.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.arrow import CompletionCallback
from repro.core.fast_closed_loop import check_center
from repro.core.queueing import RunResult
from repro.core.requests import NO_RID, ROOT_RID, RequestSchedule
from repro.errors import GraphError, ProtocolError
from repro.graphs.graph import Graph
from repro.net.latency import LatencyModel
from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import ProtocolNode
from repro.sim.kernel import Simulator


def run_open_loop_message(
    protocol: str,
    graph: Graph,
    schedule: RequestSchedule,
    make_node: Callable[[CompletionCallback], ProtocolNode],
    init: Callable[[Sequence], None],
    *,
    latency: LatencyModel | None,
    seed: int,
    service_time: float,
    max_events: int | None,
) -> RunResult:
    """The message-level open-loop run.

    ``make_node(on_complete)`` builds one protocol node (called
    ``graph.num_nodes`` times); ``init(nodes)`` runs after the nodes are
    registered and know their ids.  The schedule check, kernel, network,
    completion recording, one initiation event per request in schedule
    order, the timed run, the counters and the every-request-completed
    check are the same for both protocols.
    """
    schedule.validate_nodes(graph.num_nodes)
    sim = Simulator(max_events=max_events)
    net = Network(graph, sim, latency, seed=seed, service_time=service_time)
    result = RunResult(schedule)

    nodes = [make_node(result.record) for _ in range(graph.num_nodes)]
    net.register_all(nodes)  # attach assigns node ids
    init(nodes)

    for req in schedule:
        sim.call_at(req.time, nodes[req.node].initiate, req.rid)

    result.makespan = sim.run()
    result.network_stats = net.stats.as_dict()

    if len(result.rids) != len(schedule):
        raise ProtocolError(
            f"{protocol} run completed {len(result.rids)} of "
            f"{len(schedule)} requests"
        )
    return result


class InformingCentralNode(ProtocolNode):
    """The open-loop centralized protocol: Definition 3.2's completion.

    A requester sends ``creq`` to the centre (routed over ``G``); the
    centre swaps its tail record and informs the *previous* tail's issuer
    of its successor (``cinform``), which completes the request.
    """

    __slots__ = ("center", "_on_complete", "tail_rid", "tail_node")

    def __init__(self, center: int, on_complete: CompletionCallback) -> None:
        super().__init__()
        self.center = center
        self._on_complete = on_complete
        # Tail record, meaningful at the centre only.
        self.tail_rid = ROOT_RID
        self.tail_node = center

    def initiate(self, rid: int) -> None:
        """Issue a request: one routed message to the centre.

        The centre itself skips the first leg and enqueues locally.
        """
        if self.node_id == self.center:
            self._enqueue_at_center(rid, self.node_id, hops=0)
        else:
            self.send_routed("creq", self.center, rid=rid, origin=self.node_id)

    def on_message(self, msg: Message) -> None:
        """Centre: swap the tail and inform the predecessor's issuer.
        Others: completions."""
        assert self.net is not None
        if msg.kind == "creq":
            self._enqueue_at_center(msg.payload["rid"], msg.payload["origin"], hops=msg.hops)
        elif msg.kind == "cinform":
            # This node issued the predecessor; it now knows the successor.
            self._on_complete(
                msg.payload["rid"],
                msg.payload["predecessor"],
                self.node_id,
                self.net.sim.now,
                msg.payload["hops"] + msg.hops,
            )
        else:
            raise ProtocolError(f"unexpected message {msg.kind!r}")

    def _enqueue_at_center(self, rid: int, origin: int, hops: int) -> None:
        """Atomically extend the queue at the centre and notify."""
        pred_rid, pred_node = self.tail_rid, self.tail_node
        self.tail_rid, self.tail_node = rid, origin
        self.send_routed(
            "cinform", pred_node, rid=rid, predecessor=pred_rid, origin=origin, hops=hops
        )


def run_centralized_message(
    graph: Graph,
    center: int,
    schedule: RequestSchedule,
    *,
    latency: LatencyModel | None = None,
    seed: int = 0,
    service_time: float = 0.0,
    max_events: int | None = None,
) -> RunResult:
    """The §5 centralized baseline at message level (``run_centralized``'s oracle)."""
    check_center(center, graph.num_nodes)
    return run_open_loop_message(
        "centralized",
        graph,
        schedule,
        lambda on_complete: InformingCentralNode(center, on_complete),
        lambda nodes: None,
        latency=latency,
        seed=seed,
        service_time=service_time,
        max_events=max_events,
    )


class AdaptivePointerNode(ProtocolNode):
    """NTA/Ivy-style queuing node: path reversal without a fixed tree.

    A request from ``v`` chases ``last`` pointers toward the probable
    tail, and every node it visits re-points its ``last`` at ``v`` (Ivy's
    "path shorting"); the node that is its own ``last`` holds the tail,
    and the request completes there.
    """

    __slots__ = ("last", "last_rid", "_on_complete")

    def __init__(self, on_complete: CompletionCallback) -> None:
        super().__init__()
        self.last: int = -1
        self.last_rid: int = ROOT_RID  # overwritten for non-roots at init
        self._on_complete = on_complete

    def init_pointers(self, root: int) -> None:
        """Point every node's ``last`` at the initial tail owner."""
        if self.node_id == root:
            self.last = self.node_id
            self.last_rid = ROOT_RID
        else:
            self.last = root
            self.last_rid = NO_RID

    def initiate(self, rid: int) -> None:
        """Issue a request: chase ``last`` pointers toward the tail."""
        assert self.net is not None
        if self.last == self.node_id:
            pred = self.last_rid
            self.last_rid = rid
            self._on_complete(rid, pred, self.node_id, self.net.sim.now, 0)
            return
        target = self.last
        self.last = self.node_id
        self.last_rid = rid
        self.send_routed("nta_req", target, rid=rid, origin=self.node_id, fwd=0)

    def on_message(self, msg: Message) -> None:
        """Forward toward the probable tail, re-pointing at the requester."""
        assert self.net is not None
        if msg.kind != "nta_req":
            raise ProtocolError(f"unexpected message {msg.kind!r}")
        rid = msg.payload["rid"]
        origin = msg.payload["origin"]
        fwd = msg.payload["fwd"] + msg.hops
        old = self.last
        # Path shorting: every visited node points straight at the requester.
        self.last = origin
        if old == self.node_id:
            # This node holds the tail: the request found its predecessor.
            self._on_complete(rid, self.last_rid, self.node_id, self.net.sim.now, fwd)
        else:
            self.send_routed("nta_req", old, rid=rid, origin=origin, fwd=fwd)


def run_adaptive_message(
    graph: Graph,
    root: int,
    schedule: RequestSchedule,
    *,
    latency: LatencyModel | None = None,
    seed: int = 0,
    service_time: float = 0.0,
    max_events: int | None = None,
) -> RunResult:
    """The NTA/Ivy pointers at message level (``run_adaptive``'s oracle)."""
    if not 0 <= root < graph.num_nodes:
        raise GraphError(f"root {root} outside the graph's nodes 0..{graph.num_nodes - 1}")

    def init(nodes: Sequence[AdaptivePointerNode]) -> None:
        for nd in nodes:
            nd.init_pointers(root)

    return run_open_loop_message(
        "adaptive",
        graph,
        schedule,
        AdaptivePointerNode,
        init,
        latency=latency,
        seed=seed,
        service_time=service_time,
        max_events=max_events,
    )
