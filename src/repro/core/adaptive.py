"""Adaptive-pointer queuing baselines: NTA [17] and Ivy-style pointers [15].

The paper's related-work section (§1.1) contrasts arrow with two protocols
that also use path reversal but **do not** restrict pointers to a fixed
spanning tree; both assume a completely connected network:

* the Naimi–Trehel–Arnold protocol (NTA), whose expected message cost is
  ``O(log n)`` per operation under probabilistic assumptions;
* Li & Hudak's Ivy object manager, whose "path shorting" pointer discipline
  (every node visited by a find re-points directly at the requester) has
  amortised cost ``Θ(log n)`` per request [Ginat, Sleator, Tarjan].

Both share the same pointer discipline for the queuing abstraction studied
here: a request from ``v`` chases ``last`` pointers toward the probable
tail, and every visited node re-points its ``last`` at ``v`` (the incoming
tail).  :class:`AdaptivePointerNode` implements exactly that discipline;
the ablation benches compare its message counts against arrow's.

Each node handles a message atomically; when the request reaches a node
that is its own ``last`` (the current tail), it has found its
predecessor.  ``nta_req`` messages are routed sends, and the network
keeps no per-pair send order: only under a deterministic delay does every
routed send between one pair take the same time, so that two such sends
arrive in the order they left (equal times run in the kernel's send order).  The
``ratio`` cell family runs ``adaptive`` only at unit delay.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.arrow import CompletionCallback
from repro.core.queueing import RunResult
from repro.core.requests import ROOT_RID, RequestSchedule
from repro.core.runner import _run_open_loop
from repro.errors import GraphError, ProtocolError
from repro.graphs.graph import Graph
from repro.net.latency import LatencyModel
from repro.net.message import Message
from repro.net.node import ProtocolNode

__all__ = ["AdaptivePointerNode", "run_adaptive"]


class AdaptivePointerNode(ProtocolNode):
    """NTA/Ivy-style queuing node on a completely connected network."""

    __slots__ = ("last", "last_rid", "_on_complete")

    def __init__(self, on_complete: CompletionCallback) -> None:
        super().__init__()
        self.last: int = -1
        self.last_rid: int = ROOT_RID  # overwritten for non-roots at init
        self._on_complete = on_complete

    def init_pointers(self, root: int) -> None:
        """Point every node's ``last`` at the initial tail owner."""
        from repro.core.requests import NO_RID

        if self.node_id == root:
            self.last = self.node_id
            self.last_rid = ROOT_RID
        else:
            self.last = root
            self.last_rid = NO_RID

    # ------------------------------------------------------------------
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
            pred = self.last_rid
            self._on_complete(rid, pred, self.node_id, self.net.sim.now, fwd)
        else:
            self.send_routed("nta_req", old, rid=rid, origin=origin, fwd=fwd)


def run_adaptive(
    graph: Graph,
    root: int,
    schedule: RequestSchedule,
    *,
    latency: LatencyModel | None = None,
    seed: int = 0,
    service_time: float = 0.0,
    max_events: int | None = None,
) -> RunResult:
    """Run the adaptive-pointer (NTA/Ivy) protocol on one schedule.

    The graph should be complete (the protocols' stated assumption); the
    runner only requires that routed messages can reach every node.
    """
    if not 0 <= root < graph.num_nodes:
        raise GraphError(
            f"root {root} outside the graph's nodes 0..{graph.num_nodes - 1}"
        )

    def init(nodes: Sequence[AdaptivePointerNode]) -> None:
        for nd in nodes:
            nd.init_pointers(root)

    return _run_open_loop(
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
