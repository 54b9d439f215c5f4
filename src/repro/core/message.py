"""The message engine: the executable specification every flat run matches.

Each protocol here is a per-node state machine (:class:`ArrowNode`,
:class:`CentralizedNode`) exchanging :class:`Message` objects over a
:class:`Network`, driven by the discrete-event kernel :class:`Simulator`.
A handler runs atomically (no other event interleaves with it), which
models the paper's atomic initiation and path-reversal steps directly.
The flat loops (:func:`repro.core.fast_arrow._arrow_loop`,
:func:`repro.core.fast_closed_loop._central_loop`) replay these runs bit
for bit — completions, makespan, counters, event stream, sequence
numbers, RNG draws and ``max_events`` counts — which
``tests/small_models.py`` checks on every small instance it enumerates,
so a semantic change here must be mirrored there; the analysis layer's
nearest-neighbour executor (:mod:`repro.analysis.nearest_neighbor`)
agrees with :func:`run_arrow` on tie-free instances.  ``src/`` reaches
this module only through the ``"message"`` engine
(:func:`~repro.core.fast_arrow.arrow_runner`,
:func:`~repro.core.fast_closed_loop.closed_loop_runner`,
:func:`repro.faults.run_arrow_faulted`) and :func:`repro.run_arrow`, so no
flat run loads it.

One harness, :func:`_run`, builds every run here: the open loop
(:func:`run_arrow`), the open loop under a fault plan (``_open_loop``
with a :class:`repro.faults._FaultState`) and §5's closed loops
(:func:`closed_loop_arrow`, :func:`closed_loop_centralized`).  A run is
watched through its ``on_event`` sink (:mod:`repro.core.event_stream`)
and counted by :class:`NetworkStats`; there is no other observation
channel.

Closed-loop modelling notes (§5: "each processor issued the next queuing
request immediately after it learnt about the completion of its previous
request"):

* acknowledgements are application messages routed over ``G``
  (``queue_reply``); the paper's SP2 network is a complete unit-latency
  graph, so they are single messages, exactly the "returned to the
  processor" step of §5;
* ``service_time`` adds per-node sequential message handling.  The
  centralized protocol's centre handles every request in the system, so a
  positive service time makes its completion time grow linearly with the
  processor count — the Fig. 10 separation;
* ``think_time`` models the requester's local processing between
  operations; it bounds the per-processor issue rate the way real CPU
  work does on the SP2.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.core.event_stream import emitting_to
from repro.core.fast_closed_loop import (
    ClosedLoopResult,
    _check_complete,
    _check_loop_args,
    check_center,
)
from repro.core.queueing import RunResult
from repro.core.requests import NO_RID, ROOT_RID, RequestSchedule
from repro.errors import NetworkError, ProtocolError, SimulationError, require_time
from repro.graphs.graph import Graph
from repro.graphs.validation import require_spanning_subgraph
from repro.net.latency import LatencyModel, UnitLatency
from repro.net.router import Router
from repro.sim.rng import spawn_rng
from repro.spanning.tree import SpanningTree

if TYPE_CHECKING:
    import numpy as np

    from repro.core.event_stream import EventSink
    from repro.faults import _FaultState

__all__ = [
    "ArrowNode",
    "CentralizedNode",
    "CompletionCallback",
    "Message",
    "Network",
    "NetworkStats",
    "ProtocolNode",
    "Simulator",
    "closed_loop_arrow",
    "closed_loop_centralized",
    "run_arrow",
]

#: Signature of the completion hook: (successor_rid, predecessor_rid,
#: informed_node, completion_time, hops_taken).
CompletionCallback = Callable[[int, int, int, float, int], None]


# ----------------------------------------------------------------------
# the kernel
# ----------------------------------------------------------------------
class Simulator:
    """Single-threaded deterministic discrete-event simulator.

    The heap holds ``(time, seq, fn, args)`` tuples and ``seq`` is the
    scheduling index, so the firing order is total: two events scheduled
    for the same time fire in the order they were scheduled, on every
    run, on every platform — the same ``(time, seq)`` key the flat loops
    order their heap by.  The paper's model (Section 3.1) allows
    *arbitrary* processing order for simultaneously arriving messages;
    that freedom is explored by ``tie_break`` in
    :mod:`repro.analysis.nearest_neighbor` (Lemma 3.8), never by the
    kernel — each run stays reproducible.

    ``now`` is the current simulation time: the time of the event being
    processed, or of the last one fired.  It is a plain slot, read on
    every message, that only :meth:`run` writes.
    """

    __slots__ = ("_heap", "_seq", "now", "_running", "_fired", "_max_events")

    def __init__(self, max_events: int | None = None) -> None:
        """Create a simulator.

        ``max_events`` is a safety valve: :meth:`run` raises
        :class:`SimulationError` instead of firing one more event, which
        catches accidental livelock in protocol code under test.
        """
        self._heap: list[tuple[float, int, Callable[..., Any], tuple]] = []
        self._seq = 0
        self.now = 0.0
        self._running = False
        self._fired = 0
        self._max_events = max_events

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``.

        Scheduling into the past raises :class:`SimulationError`; scheduling
        exactly at :attr:`now` is allowed and the event fires after every
        event already scheduled for the current instant, preserving
        causality within a time step.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} (now is t={self.now})"
            )
        if time != time:  # NaN guard
            raise SimulationError("event time is NaN")
        heapq.heappush(self._heap, (time, self._seq, fn, args))
        self._seq += 1

    def call_in(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` after a non-negative relative ``delay``."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self.now + delay
        if time != time:  # NaN guard
            raise SimulationError("event time is NaN")
        heapq.heappush(self._heap, (time, self._seq, fn, args))
        self._seq += 1

    def run(self) -> float:
        """Run until the heap drains; returns the final simulation time."""
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        fired = self._fired
        limit = float("inf") if self._max_events is None else self._max_events
        try:
            while heap:
                self.now, _, fn, args = pop(heap)
                fired += 1
                # Tested before the event fires, as the fast loops do, so
                # one limit raises the same error on every engine.
                if fired > limit:
                    raise SimulationError(
                        f"exceeded max_events={self._max_events}; "
                        "possible livelock in protocol code"
                    )
                fn(*args)
        finally:
            self._fired = fired
            self._running = False
        return self.now


# ----------------------------------------------------------------------
# the network
# ----------------------------------------------------------------------
@dataclass(slots=True)
class Message:
    """A point-to-point message.

    ``kind`` tags the protocol message type (e.g. ``"queue"`` for arrow's
    find messages); ``payload`` carries protocol state.  ``hops`` counts the
    network links traversed so far by the *logical* operation this message
    belongs to — arrow forwards a queue message hop by hop, and the
    experiment in Fig. 11 reports exactly this count per operation.
    """

    kind: str
    src: int
    dst: int
    payload: dict[str, Any] = field(default_factory=dict)
    hops: int = 0


class ProtocolNode:
    """Base class for per-node protocol state machines.

    A protocol is a subclass with an ``on_message`` handler.  ``emit`` is
    the run's event-stream ``append``, set by the harness that owns the
    :class:`~repro.core.event_stream.EventStream` (the event vocabulary is
    in :mod:`repro.monitors`); ``None`` keeps the protocol path
    emission-free.  ``app_handler`` receives the application messages a
    protocol does not handle itself (``queue_reply`` acknowledgements,
    object hand-offs, ...).
    """

    __slots__ = ("net", "node_id", "emit", "app_handler")

    def __init__(self) -> None:
        self.net: Network | None = None
        self.node_id: int = -1
        self.emit: Callable[[tuple], None] | None = None
        self.app_handler: Callable[[Message], None] | None = None

    def attach(self, net: Network, node_id: int) -> None:
        """Bind this state machine to a network endpoint.

        Called by :meth:`Network.register`; subclasses may override to run
        initialisation that needs the node id (call ``super().attach`` first).
        """
        self.net = net
        self.node_id = node_id

    def on_message(self, msg: Message) -> None:
        """Handle one delivered message (atomic)."""
        raise NotImplementedError

    def send(self, kind: str, dst: int, **payload) -> Message:
        """Send a single-hop message over the link to a neighbour."""
        assert self.net is not None, "node not attached to a network"
        return self.net.send_link(self.node_id, dst, kind, payload)

    def send_routed(self, kind: str, dst: int, **payload) -> Message:
        """Send a message routed along a shortest path in ``G``."""
        assert self.net is not None, "node not attached to a network"
        return self.net.send_routed(self.node_id, dst, kind, payload)


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


class Network:
    """Message-passing network over a graph, driven by a simulator.

    * **single-hop sends** (:meth:`send_link`) cross one physical link
      after one latency draw — the only kind of send the arrow protocol
      itself performs (its messages hop between spanning-tree
      neighbours).  A link keeps no per-link state: arrow never puts two
      queue messages on one tree edge at once, so none can overtake
      another (``tests/small_models.py`` and
      :class:`repro.monitors.ArrowMonitor` assert it), and no other
      protocol here sends over links;
    * **routed sends** (:meth:`send_routed`) deliver along a shortest
      path of ``G`` with the summed per-edge delays — used by the
      centralized baseline and by application-level replies (object
      hand-off, completion notices), which the paper routes over the
      network rather than the tree.  A routed send is one
      :meth:`Router.delay_hops` call on the network's
      :class:`~repro.net.router.Router`, the same class the flat loops
      route through;
    * an optional **per-node service time** serialises message handling
      at each node, modelling CPU occupancy.  The synchronous analysis
      model (§3.1) corresponds to ``service_time == 0`` ("a node can
      process up to deg(v) messages in a time step"); the Fig. 10
      experiment's centralized bottleneck appears when it is positive;
    * an optional **fault state** (``faults``, a
      :class:`repro.faults._FaultState`) drops link sends and arrivals at
      crashed nodes.  It rides only on the open-loop arrow run, whose
      every message is a ``queue`` message.  Its drop checks run before
      any stats update or latency draw, so a dropped message is
      observationally absent — exactly like the fast loop, which never
      transmits it.
    """

    def __init__(
        self,
        graph: Graph,
        sim: Simulator,
        latency: LatencyModel | None = None,
        *,
        seed: int = 0,
        service_time: float = 0.0,
        faults: _FaultState | None = None,
    ) -> None:
        self.service_time = require_time("service_time", service_time, NetworkError)
        self.graph = graph
        self.sim = sim
        self.latency = latency if latency is not None else UnitLatency()
        self.rng: np.random.Generator = spawn_rng(seed, "network-latency")
        self._router = Router(graph, self.latency, self.rng)
        self.stats = NetworkStats()
        self.faults = faults
        self._nodes: list[ProtocolNode | None] = [None] * graph.num_nodes
        # Sequential-service state: when the next message may begin service.
        self._busy_until: list[float] = [0.0] * graph.num_nodes

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

    def send_link(
        self, src: int, dst: int, kind: str, payload: dict[str, Any] | None = None
    ) -> Message | None:
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

    def forward(self, msg: Message, new_dst: int) -> Message | None:
        """Forward an in-flight logical operation one more link hop.

        Creates a fresh message that inherits the payload and accumulated
        hop count; arrow uses this as queue messages chase the sink.
        """
        return self._send_link(msg.dst, new_dst, msg.kind, msg.payload, msg.hops)

    def _send_link(
        self, src: int, dst: int, kind: str, payload: dict[str, Any], hops: int
    ) -> Message | None:
        """The one link-send path; ``hops`` is the count inherited so far.

        Returns ``None`` for a message the fault state dropped.
        """
        faults = self.faults
        if faults is not None:
            if faults.drops_send(src, dst, payload["rid"], self.sim.now):
                return None
            faults.in_flight += 1
        if not self.graph.has_edge(src, dst):
            raise NetworkError(f"no link between {src} and {dst}")
        msg = Message(kind, src, dst, payload, hops + 1)
        self.stats.messages_sent += 1
        self.stats.link_messages += 1
        self.stats.hops_total += 1
        delay = self.latency.sample(src, dst, self.graph.weight(src, dst), self.rng)
        self.sim.call_in(delay, self._arrive, msg)
        return msg

    def _arrive(self, msg: Message) -> None:
        """Message reached its destination; apply the service-time model."""
        faults = self.faults
        if faults is not None and faults.drops_arrival(
            msg.src, msg.dst, msg.payload["rid"], self.sim.now
        ):
            return  # a down node's queue never accepts the message
        if self.service_time == 0.0:
            self._dispatch(msg)
            return
        sim, busy, dst = self.sim, self._busy_until, msg.dst
        begin = busy[dst] if busy[dst] > sim.now else sim.now
        busy[dst] = finish = begin + self.service_time
        sim.call_at(finish, self._dispatch, msg)

    def _dispatch(self, msg: Message) -> None:
        faults = self.faults
        if faults is not None:
            if faults.drops_arrival(msg.src, msg.dst, msg.payload["rid"], self.sim.now):
                return  # the node crashed while the message waited for service
            faults.in_flight -= 1
        node = self._nodes[msg.dst]
        if node is None:
            raise NetworkError(f"message {msg.kind} delivered to empty node {msg.dst}")
        node.on_message(msg)


# ----------------------------------------------------------------------
# the protocols
# ----------------------------------------------------------------------
class ArrowNode(ProtocolNode):
    """Per-node state machine of the arrow protocol (Section 2).

    Every node ``v`` keeps ``link(v)`` — a pointer to a spanning-tree
    neighbour or to ``v`` itself (a node with ``link(v) == v`` is a
    *sink*) — and ``id(v)``, the id of the last queuing request issued
    by ``v`` (⊥ before the first one; the initial root holds the virtual
    root request's id instead, since it owns the initial queue tail).
    """

    __slots__ = ("link", "last_rid", "_on_complete", "_notify_origin")

    def __init__(
        self,
        on_complete: CompletionCallback,
        *,
        notify_origin: bool = False,
    ) -> None:
        """Create a node.

        ``on_complete`` is invoked at the instant a request's
        predecessor-issuer learns the successor identity (the paper's
        completion event).  With ``notify_origin`` the sink additionally
        sends a routed ``queue_reply`` back to the request's origin — the
        application-level acknowledgement the paper's experiments wait
        for in the closed loop (§5), *not* part of the queuing cost.
        """
        super().__init__()
        self.link: int = -1
        self.last_rid: int = NO_RID
        self._on_complete = on_complete
        self._notify_origin = notify_origin

    def init_pointers(self, tree: SpanningTree) -> None:
        """Point the arrow toward the root (initial configuration, Fig. 1)."""
        self.link = tree.parent[self.node_id]  # parent[root] == root: the sink
        if self.node_id == tree.root:
            self.last_rid = ROOT_RID

    def initiate(self, rid: int) -> None:
        """Issue request ``rid`` from this node (atomic initiation step).

        Node ``v`` sets ``id(v) <- rid``, sends ``queue(rid)`` to
        ``u1 = link(v)`` and sets ``link(v) <- v``.  If ``v`` was already
        a sink, the request is queued behind ``v``'s previous request
        immediately and locally — zero messages, zero latency (why Fig. 11
        measures *less than one* hop per operation on average).  The
        issue time is the current simulation time: the schedule (or the
        closed loop) is the single source of origin times.
        """
        assert self.net is not None
        emit = self.emit
        if emit is not None:
            emit(("init", rid, self.node_id, self.net.sim.now))
        if self.link == self.node_id:
            # Local find: this node is the sink, so the new request is
            # queued directly behind this node's previous request.
            pred = self.last_rid
            self.last_rid = rid
            self._complete(rid, pred, hops=0)
            return
        u1 = self.link
        self.last_rid = rid
        self.link = self.node_id
        if emit is not None:
            emit(("send", rid, self.node_id, u1, self.net.sim.now))
        self.send("queue", u1, rid=rid, origin=self.node_id)

    def on_message(self, msg: Message) -> None:
        """Path-reversal step for arriving ``queue`` messages (atomic).

        When ``u`` receives ``queue(a)`` from ``w``, it reads
        ``x = link(u)``, flips ``link(u) <- w`` and either forwards the
        message to ``x`` (if ``x != u``) or declares ``a`` queued behind
        ``id(u)`` — ``u`` has just been informed of its request's
        successor, the completion event whose delay defines the latency
        of ``a`` (Definition 3.2).
        """
        if msg.kind != "queue":
            if self.app_handler is not None:
                self.app_handler(msg)
                return
            raise ProtocolError(f"arrow node got unexpected message {msg.kind!r}")
        assert self.net is not None
        emit = self.emit
        if emit is not None:
            emit(("deliver", msg.payload["rid"], self.node_id, msg.src, self.net.sim.now))
        x = self.link
        self.link = msg.src
        if x != self.node_id:
            if emit is not None:
                emit(("send", msg.payload["rid"], self.node_id, x, self.net.sim.now))
            self.net.forward(msg, x)
            return
        # This node is the sink: the request is queued behind our last
        # request, and we have just been informed of its successor.
        rid = msg.payload["rid"]
        pred = self.last_rid
        self._complete(rid, pred, hops=msg.hops, origin=msg.payload["origin"])

    def _complete(
        self, rid: int, pred: int, *, hops: int, origin: int | None = None
    ) -> None:
        assert self.net is not None
        if self.emit is not None:
            self.emit(("complete", rid, pred, self.node_id, self.net.sim.now, hops))
        self._on_complete(rid, pred, self.node_id, self.net.sim.now, hops)
        if self._notify_origin:
            target = self.node_id if origin is None else origin
            self.send_routed("queue_reply", target, rid=rid, predecessor=pred)


class CentralizedNode(ProtocolNode):
    """Per-node state machine of §5's centralized queuing baseline.

    "A globally known central node always stored the current tail of the
    total order.  Every queuing request was completed using only two
    messages, one to the central node, and one back."  A requester sends
    ``creq`` to the centre (routed over ``G``); the centre swaps its tail
    record, records the completion itself and acknowledges the requester
    with one ``queue_reply``, so the closed loop can issue the next
    request.  The centre handles every request in the system, so with a
    positive service time it saturates as the system grows — the linear
    slowdown of Fig. 10.  The open-loop baseline, where the centre
    informs the previous tail's issuer instead (Definition 3.2's
    completion), runs on the flat loop only.
    """

    __slots__ = ("center", "_on_complete", "tail_rid", "is_center")

    def __init__(self, center: int, on_complete: CompletionCallback) -> None:
        super().__init__()
        self.center = center
        self._on_complete = on_complete
        self.is_center = False
        # Tail record, meaningful at the centre only.
        self.tail_rid = ROOT_RID

    def init_center(self) -> None:
        """Mark this node as the centre holding the initial (root) tail."""
        self.is_center = True
        self.tail_rid = ROOT_RID

    def initiate(self, rid: int) -> None:
        """Issue a request: one routed message to the centre.

        The centre itself skips the first leg and enqueues locally.
        """
        assert self.net is not None
        if self.node_id == self.center:
            self._enqueue_at_center(rid, self.node_id, hops=0)
        else:
            self.send_routed("creq", self.center, rid=rid, origin=self.node_id)

    def on_message(self, msg: Message) -> None:
        """Centre: swap the tail and acknowledge.  Others: application messages."""
        assert self.net is not None
        if msg.kind == "creq":
            if not self.is_center:
                raise ProtocolError(
                    f"creq delivered to non-centre node {self.node_id}"
                )
            self._enqueue_at_center(
                msg.payload["rid"], msg.payload["origin"], hops=msg.hops
            )
        else:
            if self.app_handler is not None:
                self.app_handler(msg)
                return
            raise ProtocolError(f"unexpected message {msg.kind!r}")

    def _enqueue_at_center(self, rid: int, origin: int, hops: int) -> None:
        """Atomically extend the queue at the centre, record the completion
        and acknowledge the requester with its predecessor's identity."""
        assert self.net is not None
        pred_rid = self.tail_rid
        self.tail_rid = rid
        self._on_complete(rid, pred_rid, self.node_id, self.net.sim.now, hops)
        self.send_routed("queue_reply", origin, rid=rid, predecessor=pred_rid)


# ----------------------------------------------------------------------
# the harness
# ----------------------------------------------------------------------
def _run(
    graph: Graph,
    result: RunResult | ClosedLoopResult,
    *,
    tree: SpanningTree | None = None,
    center: int = 0,
    latency: LatencyModel | None,
    seed: int,
    service_time: float,
    max_events: int | None,
    on_event: EventSink | None = None,
    faults: _FaultState | None = None,
    think_time: float = 0.0,
) -> list[ProtocolNode]:
    """Build, seed and run one message-level run; return its nodes.

    Every run of this module is a configuration of this function.  It
    builds the kernel, the network (carrying ``faults``) and one node per
    graph node — arrow over ``tree``, else the centralized protocol around
    ``center`` — each recording its completions through ``result.record``.
    ``result`` picks the driver:

    * a :class:`RunResult` (open loop) seeds each request's initiation at
      its issue time, in rid order, then the fault plan's crashes — so the
      crashes own seqs m..m+c-1, which the fast loop replays.  With
      ``faults`` an initiation first repairs a quiescent degraded run and
      is lost on a down node, exactly the sequence the fast loop runs, and
      a run still degraded when the heap drains is repaired once more;
    * a :class:`ClosedLoopResult` (§5's loop) seeds every processor's
      first issue at t = 0, in node order; a request's ``queue_reply``
      issues the processor's next one ``think_time`` later, or inside its
      own dispatch when ``think_time`` is 0.

    The event stream (``emit`` on every node and on ``faults``) flushes
    when the run ends or aborts, and the run is checked complete — a
    faulted run by :meth:`~repro.faults._FaultState.finish`, which reads
    the nodes' final pointers.
    """
    sim = Simulator(max_events=max_events)
    net = Network(graph, sim, latency, seed=seed, service_time=service_time, faults=faults)
    n = graph.num_nodes
    open_loop = isinstance(result, RunResult)
    if tree is not None:
        nodes = [ArrowNode(result.record, notify_origin=not open_loop) for _ in range(n)]
    else:
        nodes = [CentralizedNode(center, result.record) for _ in range(n)]
    net.register_all(nodes)  # attach assigns node ids
    if tree is not None:
        for nd in nodes:
            nd.init_pointers(tree)
    else:
        nodes[center].init_center()

    def repair(now: float) -> None:
        link = [nd.link for nd in nodes]
        sink, er = faults.repair(link, now)
        for nd, target in zip(nodes, link):
            nd.link = target
        nodes[sink].last_rid = er

    if open_loop:

        def start(v: int, rid: int) -> None:
            # Quiescent-point repair check, then the down-node gate.
            if faults is not None:
                if faults.repair_due():
                    repair(sim.now)
                if faults.down[v]:
                    faults.drop_initiation(rid, v, sim.now)
                    return
            nodes[v].initiate(rid)

        def crash(v: int) -> None:
            faults.crash(v, sim.now)
            nodes[v].link = v

        for req in result.schedule:
            sim.call_at(req.time, start, req.node, req.rid)
        if faults is not None:
            for v, t in faults.crashes:
                sim.call_at(t, crash, v)
    else:
        remaining = [result.requests_per_proc] * n
        result.ack_times = [-1.0] * result.total_requests

        def issue(proc: int) -> None:
            if remaining[proc] > 0:
                remaining[proc] -= 1
                rid = len(result.owners)  # rids count the requests issued
                result.owners.append(proc)
                result.issue_times.append(sim.now)
                nodes[proc].initiate(rid)

        def ack(msg: Message) -> None:  # at the origin: msg.dst issued msg's rid
            if msg.kind != "queue_reply":
                raise ProtocolError(f"unexpected app message {msg.kind!r}")
            result.ack_times[msg.payload["rid"]] = result.makespan = sim.now
            if remaining[msg.dst] > 0:
                if think_time > 0:
                    sim.call_in(think_time, issue, msg.dst)
                else:
                    issue(msg.dst)

        for nd in nodes:
            nd.app_handler = ack
        for p in range(n):
            sim.call_at(0.0, issue, p)

    with emitting_to(on_event) as emit:
        for nd in nodes:
            nd.emit = emit
        if faults is not None:
            faults.emit = emit
        end = sim.run()
        if faults is not None and faults.degraded:
            repair(end)
    if not open_loop:
        result.messages_sent = net.stats.messages_sent
        _check_complete(result)
        return nodes
    result.makespan = end
    result.network_stats = net.stats.as_dict()
    if faults is None and len(result.rids) != len(result.schedule):
        raise ProtocolError(
            f"arrow run completed {len(result.rids)} of {len(result.schedule)} requests"
        )
    return nodes


def _open_loop(
    graph: Graph,
    tree: SpanningTree,
    schedule: RequestSchedule,
    faults: _FaultState | None,
    *,
    latency: LatencyModel | None,
    seed: int,
    service_time: float,
    max_events: int | None,
    on_event: EventSink | None,
) -> tuple[RunResult, list[int]]:
    """The open-loop arrow run, with a fault state or without (``None``).

    Returns the result and the final pointers, as
    :func:`repro.core.fast_arrow._open_loop` does; the callers have
    checked the inputs.
    """
    result = RunResult(schedule)
    nodes = _run(
        graph,
        result,
        tree=tree,
        latency=latency,
        seed=seed,
        service_time=service_time,
        max_events=max_events,
        on_event=on_event,
        faults=faults,
    )
    return result, [nd.link for nd in nodes]


def run_arrow(
    graph: Graph,
    tree: SpanningTree,
    schedule: RequestSchedule,
    *,
    latency: LatencyModel | None = None,
    seed: int = 0,
    service_time: float = 0.0,
    max_events: int | None = None,
    on_event=None,
) -> RunResult:
    """Run the arrow protocol on one schedule; return the results.

    Parameters mirror the paper's model knobs: ``latency`` selects
    synchronous (:class:`UnitLatency`, the default) or asynchronous
    behaviour; ``service_time`` adds per-node sequential message handling
    (0 = the §3.1 analysis model).  ``on_event``, when set, is called with
    the protocol trace as a list of event tuples
    (:mod:`repro.core.event_stream`; the vocabulary is in
    :mod:`repro.monitors`) — once, when the run ends or aborts — and
    leaves the results untouched.
    """
    require_spanning_subgraph(graph, [(u, v) for u, v, _ in tree.edges()])
    schedule.validate_nodes(graph.num_nodes)
    result, _ = _open_loop(
        graph,
        tree,
        schedule,
        None,
        latency=latency,
        seed=seed,
        service_time=service_time,
        max_events=max_events,
        on_event=on_event,
    )
    return result


def closed_loop_arrow(
    graph: Graph,
    tree: SpanningTree,
    *,
    requests_per_proc: int,
    latency: LatencyModel | None = None,
    seed: int = 0,
    service_time: float = 0.0,
    think_time: float = 0.0,
    max_events: int | None = None,
    on_event=None,
) -> ClosedLoopResult:
    """Closed-loop arrow run; returns makespan and per-request hops.

    ``on_event``, when set, is called with the queuing-layer protocol
    trace as a list of event tuples (:mod:`repro.core.event_stream`; the
    vocabulary is in :mod:`repro.monitors`), once, when the run ends or
    aborts; the ``queue_reply`` acknowledgements are application traffic
    and not part of it.
    """
    _check_loop_args(requests_per_proc, service_time, think_time)
    result = ClosedLoopResult("arrow", graph.num_nodes, requests_per_proc)
    _run(
        graph,
        result,
        tree=tree,
        latency=latency,
        seed=seed,
        service_time=service_time,
        max_events=max_events,
        on_event=on_event,
        think_time=think_time,
    )
    return result


def closed_loop_centralized(
    graph: Graph,
    center: int,
    *,
    requests_per_proc: int,
    latency: LatencyModel | None = None,
    seed: int = 0,
    service_time: float = 0.0,
    think_time: float = 0.0,
    max_events: int | None = None,
) -> ClosedLoopResult:
    """Closed-loop centralized run with the paper's 2-message discipline."""
    check_center(center, graph.num_nodes)
    _check_loop_args(requests_per_proc, service_time, think_time)
    result = ClosedLoopResult("centralized", graph.num_nodes, requests_per_proc)
    _run(
        graph,
        result,
        center=center,
        latency=latency,
        seed=seed,
        service_time=service_time,
        max_events=max_events,
        think_time=think_time,
    )
    return result
