"""The centralized queuing baseline of Section 5.

"A globally known central node always stored the current tail of the total
order.  Every queuing request was completed using only two messages, one to
the central node, and one back."

:class:`CentralizedNode` is the closed loop's node at message level: a
requester sends ``creq`` to the centre (routed over ``G``); the centre
swaps its tail record, records the completion itself and acknowledges
the requester with one ``queue_reply``, so the driver can issue the next
request — the "one back" message of the paper's measurement loop.  The
open-loop baseline, where the centre informs the previous tail's issuer
instead (Definition 3.2's completion), and the flat closed loop run on
:func:`repro.core.fast_closed_loop._central_loop`.

The centre handles every request in the system, so with a positive
per-node service time it saturates as the system grows — the linear
slowdown of Fig. 10.
"""

from __future__ import annotations

from typing import Callable

from repro.core.arrow import CompletionCallback
from repro.core.requests import ROOT_RID
from repro.errors import ProtocolError
from repro.net.message import Message
from repro.net.node import ProtocolNode

__all__ = ["CentralizedNode"]


class CentralizedNode(ProtocolNode):
    """Per-node state machine of the centralized protocol."""

    __slots__ = (
        "center",
        "_on_complete",
        "tail_rid",
        "is_center",
        "app_handler",
    )

    def __init__(self, center: int, on_complete: CompletionCallback) -> None:
        """Create a node of the centralized protocol.

        The protocol uses exactly the paper's two messages per request —
        ``creq`` to the centre and one ``queue_reply`` back to the
        requester carrying the predecessor's identity — and the
        completion is recorded at the centre (which maintains the whole
        queue).
        """
        super().__init__()
        self.center = center
        self._on_complete = on_complete
        self.is_center = False
        # Tail record, meaningful at the centre only.
        self.tail_rid = ROOT_RID
        #: Optional hook for application messages (``queue_reply`` etc.).
        self.app_handler: Callable[[Message], None] | None = None

    def init_center(self) -> None:
        """Mark this node as the centre holding the initial (root) tail."""
        self.is_center = True
        self.tail_rid = ROOT_RID

    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    def _enqueue_at_center(self, rid: int, origin: int, hops: int) -> None:
        """Atomically extend the queue at the centre, record the completion
        and acknowledge the requester with its predecessor's identity."""
        assert self.net is not None
        pred_rid = self.tail_rid
        self.tail_rid = rid
        self._on_complete(rid, pred_rid, self.node_id, self.net.sim.now, hops)
        self.send_routed("queue_reply", origin, rid=rid, predecessor=pred_rid)
