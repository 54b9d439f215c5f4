"""Message representation for the network substrate."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["Message"]


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
