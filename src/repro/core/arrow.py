"""The arrow distributed queuing protocol (Section 2 of the paper).

Every node ``v`` keeps

* ``link(v)`` — a pointer to a spanning-tree neighbour or to ``v`` itself
  (a node with ``link(v) == v`` is a *sink*);
* ``id(v)`` — the id of the last queuing request issued by ``v``
  (⊥ before the first one; the initial root holds the virtual root
  request's id instead, since it owns the initial queue tail).

**Initiation** (atomic): to issue request ``a``, node ``v`` sets
``id(v) <- a``, sends ``queue(a)`` to ``u1 = link(v)`` and sets
``link(v) <- v``.  If ``v`` was already a sink, the new request is queued
behind ``v``'s previous request immediately and locally — zero messages,
zero latency.  (This local-find case is why Fig. 11 measures *less than
one* hop per operation on average.)

**Path reversal** (atomic): when ``u`` receives ``queue(a)`` from ``w``,
it reads ``x = link(u)``, flips ``link(u) <- w`` and either forwards the
message to ``x`` (if ``x != u``) or declares ``a`` queued behind ``id(u)``
— ``u`` has just been informed of its request's successor, which is the
completion event whose delay defines the latency of ``a`` (Definition 3.2).
"""

from __future__ import annotations

from typing import Callable

from repro.core.requests import NO_RID, ROOT_RID
from repro.errors import ProtocolError
from repro.net.message import Message
from repro.net.node import ProtocolNode
from repro.spanning.tree import SpanningTree

__all__ = ["ArrowNode", "CompletionCallback"]

#: Signature of the completion hook: (successor_rid, predecessor_rid,
#: informed_node, completion_time, hops_taken).
CompletionCallback = Callable[[int, int, int, float, int], None]


class ArrowNode(ProtocolNode):
    """Per-node state machine of the arrow protocol."""

    __slots__ = (
        "link",
        "last_rid",
        "_on_complete",
        "_notify_origin",
        "app_handler",
        "emit",
    )

    def __init__(
        self,
        on_complete: CompletionCallback,
        *,
        notify_origin: bool = False,
    ) -> None:
        """Create a node.

        Parameters
        ----------
        on_complete:
            Invoked at the instant a request's predecessor-issuer learns the
            successor identity (the paper's completion event).
        notify_origin:
            When True, the sink additionally sends a routed
            ``queue_reply`` message back to the request's origin — the
            application-level acknowledgement the paper's experiments wait
            for in the closed loop (§5), *not* part of the queuing cost.
        """
        super().__init__()
        self.link: int = -1
        self.last_rid: int = NO_RID
        self._on_complete = on_complete
        self._notify_origin = notify_origin
        #: Optional hook receiving every non-``queue`` message (application
        #: traffic: ``queue_reply`` acknowledgements, object hand-offs...).
        self.app_handler: Callable[[Message], None] | None = None
        #: The run's event-stream ``append``, set by the harness that owns
        #: the :class:`~repro.core.event_stream.EventStream` (the event
        #: vocabulary is in :mod:`repro.monitors`).  ``None`` keeps the
        #: protocol path emission-free.
        self.emit: Callable[[tuple], None] | None = None

    # ------------------------------------------------------------------
    def init_pointers(self, tree: SpanningTree) -> None:
        """Point the arrow toward the root (initial configuration, Fig. 1)."""
        self.link = tree.parent[self.node_id]  # parent[root] == root: the sink
        if self.node_id == tree.root:
            self.last_rid = ROOT_RID

    # ------------------------------------------------------------------
    def initiate(self, rid: int) -> None:
        """Issue request ``rid`` from this node (atomic initiation step).

        The request's issue time is the current simulation time; the
        schedule (or closed-loop driver) is the single source of origin
        times, so the protocol layer does not take one as an argument.
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
        """Path-reversal step for arriving ``queue`` messages."""
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

    # ------------------------------------------------------------------
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

