"""Run results and total-order verification for queuing protocols.

Every protocol runner in this library produces a :class:`RunResult`:
per-request completion records plus the reconstructed queuing order.  The
verification helpers check the defining property of distributed queuing —
the completions describe one total order containing every request exactly
once, starting at the virtual root request — and are used pervasively by
the integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.core.requests import ROOT_RID, RequestSchedule
from repro.errors import ProtocolError

__all__ = ["CompletionRecord", "RunResult", "verify_total_order"]


class CompletionRecord(NamedTuple):
    """Completion of one request (the paper's Definition 3.2 event).

    ``rid`` was queued behind ``predecessor``; ``informed_node`` (the
    issuer of the predecessor) learned this at ``completed_at``; the
    request's ``queue`` message traversed ``hops`` tree links.

    A named tuple rather than a dataclass: protocol runs mint one record
    per request on their hot path, and tuple construction is several
    times cheaper than a frozen dataclass ``__init__``.
    """

    rid: int
    predecessor: int
    informed_node: int
    completed_at: float
    hops: int


@dataclass(slots=True)
class RunResult:
    """Outcome of running a queuing protocol on a request schedule."""

    schedule: RequestSchedule
    completions: dict[int, CompletionRecord] = field(default_factory=dict)
    #: Simulation time when the last event fired.
    makespan: float = 0.0
    #: Aggregate network counters (messages, hops), protocol-specific.
    network_stats: dict[str, int] = field(default_factory=dict)
    #: Wall-clock seconds spent simulating (for throughput reporting).
    #: Excluded from equality: wall clock is measurement noise, and two
    #: bit-identical runs must compare equal however long they took.
    wall_seconds: float = field(default=0.0, compare=False)

    # ------------------------------------------------------------------
    def record(self, rec: CompletionRecord) -> None:
        """Store one completion; duplicates indicate a protocol bug."""
        if rec.rid in self.completions:
            raise ProtocolError(f"request {rec.rid} completed twice")
        self.completions[rec.rid] = rec

    @property
    def order(self) -> list[int]:
        """Queuing order as a list of rids (root request excluded).

        Reconstructed by following the successor chain from the virtual
        root request.  Raises :class:`ProtocolError` if the completions do
        not form a single chain over all requests.
        """
        succ: dict[int, int] = {}
        for rec in self.completions.values():
            if rec.predecessor in succ:
                raise ProtocolError(
                    f"requests {succ[rec.predecessor]} and {rec.rid} both "
                    f"claim predecessor {rec.predecessor}"
                )
            succ[rec.predecessor] = rec.rid
        chain: list[int] = []
        cur = ROOT_RID
        while cur in succ:
            cur = succ[cur]
            chain.append(cur)
        if len(chain) != len(self.completions):
            raise ProtocolError(
                f"successor chain covers {len(chain)} of "
                f"{len(self.completions)} completed requests"
            )
        return chain

    # ------------------------------------------------------------------
    def latency(self, rid: int) -> float:
        """Latency of one request (Definition 3.2)."""
        return self.completions[rid].completed_at - self.schedule.times[rid]

    @property
    def total_latency(self) -> float:
        """Total cost = sum of all latencies (Definition 3.3)."""
        return sum(self.latency(rid) for rid in self.completions)

    @property
    def total_hops(self) -> int:
        """Total queue-message link traversals across all requests."""
        return sum(rec.hops for rec in self.completions.values())

    @property
    def mean_hops(self) -> float:
        """Average hops per request (the Fig. 11 metric)."""
        if not self.completions:
            return 0.0
        return self.total_hops / len(self.completions)

    def local_find_fraction(self) -> float:
        """Fraction of requests completed with zero messages."""
        if not self.completions:
            return 0.0
        zero = sum(1 for rec in self.completions.values() if rec.hops == 0)
        return zero / len(self.completions)


def verify_total_order(result: RunResult) -> list[int]:
    """Check the run queued every request exactly once; return the order.

    Raises :class:`ProtocolError` on any violation:
    * some request never completed,
    * a request completed twice (caught at record time),
    * the successor relation is not a single chain from the root request.
    """
    rids = range(len(result.schedule))  # a rid is its schedule index
    missing = [rid for rid in rids if rid not in result.completions]
    if missing:
        raise ProtocolError(f"requests never completed: {missing[:10]}")
    order = result.order  # raises on structural violations
    if sorted(order) != list(rids):
        raise ProtocolError("queuing order does not cover the schedule exactly")
    return order
