"""Run results and total-order verification for queuing protocols.

Every protocol runner in this library produces a :class:`RunResult`:
per-request completion columns plus the reconstructed queuing order.  The
verification helpers check the defining property of distributed queuing —
the completions describe one total order containing every request exactly
once, starting at the virtual root request — and are used pervasively by
the integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import sub
from typing import NamedTuple

from repro.core.requests import ROOT_RID, RequestSchedule
from repro.core.totals import float_total
from repro.errors import ProtocolError

__all__ = ["CompletionRecord", "RunResult", "verify_total_order"]


class CompletionRecord(NamedTuple):
    """Completion of one request (the paper's Definition 3.2 event).

    ``rid`` was queued behind ``predecessor``; ``informed_node`` (the
    issuer of the predecessor) learned this at ``completed_at``; the
    request's ``queue`` message traversed ``hops`` tree links.

    A view: no run path builds one.  Runs fill :class:`RunResult`'s
    columns, and :attr:`RunResult.completions` makes the records from them
    on first access.
    """

    rid: int
    predecessor: int
    informed_node: int
    completed_at: float
    hops: int


@dataclass(slots=True)
class RunResult:
    """Outcome of running a queuing protocol on a request schedule.

    Stored as five parallel columns in completion order — one entry per
    completed request, the fields of :class:`CompletionRecord` — which the
    fast engine's loop appends to in place and the message-level harnesses
    fill one :meth:`record` call at a time.  Every
    aggregate (:attr:`total_latency`, :attr:`mean_hops`, :attr:`order`, …)
    is a reduction over the columns; :attr:`completions` is the per-request
    view for callers that want records.
    """

    schedule: RequestSchedule
    #: Completed requests, in completion order.
    rids: list[int] = field(default_factory=list)
    #: Per completion: the request it was queued behind.
    predecessors: list[int] = field(default_factory=list)
    #: Per completion: the node that learned of it (the predecessor's issuer).
    informed_nodes: list[int] = field(default_factory=list)
    #: Per completion: the simulation time it happened at.
    completed_at: list[float] = field(default_factory=list)
    #: Per completion: tree links its ``queue`` message traversed.
    hops: list[int] = field(default_factory=list)
    #: Simulation time when the last event fired.
    makespan: float = 0.0
    #: Aggregate network counters (messages, hops), protocol-specific.
    network_stats: dict[str, int] = field(default_factory=dict)
    # Derived from the columns on demand, never part of a result's value:
    # rid -> position in the columns, and the ``completions`` view.
    _positions: dict[int, int] = field(default_factory=dict, init=False, repr=False, compare=False)
    _completions: dict[int, CompletionRecord] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    def _index(self) -> dict[int, int]:
        """The rid -> column position index, rebuilt if the columns outgrew it."""
        positions = self._positions
        if len(positions) != len(self.rids):
            positions = self._positions = dict(zip(self.rids, range(len(self.rids))))
        return positions

    def record(
        self, rid: int, predecessor: int, informed_node: int, completed_at: float, hops: int
    ) -> None:
        """Store one completion; duplicates indicate a protocol bug.

        The signature is the protocol nodes' completion callback, so the
        message-level harnesses pass this method to them as it stands.
        """
        positions = self._index()
        if rid in positions:
            raise ProtocolError(f"request {rid} completed twice")
        positions[rid] = len(self.rids)
        self.rids.append(rid)
        self.predecessors.append(predecessor)
        self.informed_nodes.append(informed_node)
        self.completed_at.append(completed_at)
        self.hops.append(hops)
        self._completions = None

    @property
    def completions(self) -> dict[int, CompletionRecord]:
        """Per-request records keyed by rid, in completion order.

        A view over the columns, built on first access and cached until
        the next :meth:`record`; treat it as read-only.
        """
        view = self._completions
        if view is None:
            columns = (
                self.rids, self.predecessors, self.informed_nodes, self.completed_at, self.hops
            )
            view = self._completions = dict(zip(self.rids, map(CompletionRecord, *columns)))
        return view

    @property
    def order(self) -> list[int]:
        """Queuing order as a list of rids (root request excluded).

        Reconstructed by following the successor chain from the virtual
        root request.  Raises :class:`ProtocolError` if the completions do
        not form a single chain over all requests.
        """
        succ: dict[int, int] = {}
        for pred, rid in zip(self.predecessors, self.rids):
            if pred in succ:
                raise ProtocolError(
                    f"requests {succ[pred]} and {rid} both claim predecessor {pred}"
                )
            succ[pred] = rid
        chain: list[int] = []
        cur = ROOT_RID
        while cur in succ:
            cur = succ[cur]
            chain.append(cur)
        if len(chain) != len(self.rids):
            raise ProtocolError(
                f"successor chain covers {len(chain)} of "
                f"{len(self.rids)} completed requests"
            )
        return chain

    # ------------------------------------------------------------------
    def latency(self, rid: int) -> float:
        """Latency of one request (Definition 3.2)."""
        return self.completed_at[self._index()[rid]] - self.schedule.times[rid]

    @property
    def latencies(self) -> list[float]:
        """Latency of every completed request, in completion order."""
        issued = map(self.schedule.times.__getitem__, self.rids)
        return list(map(sub, self.completed_at, issued))

    @property
    def total_latency(self) -> float:
        """Total cost = sum of all latencies (Definition 3.3)."""
        return float_total(self.latencies)

    @property
    def total_hops(self) -> int:
        """Total queue-message link traversals across all requests."""
        return sum(self.hops)

    @property
    def mean_hops(self) -> float:
        """Average hops per request (the Fig. 11 metric)."""
        return self.total_hops / len(self.hops) if self.hops else 0.0

    @property
    def local_find_fraction(self) -> float:
        """Fraction of requests completed with zero messages."""
        return self.hops.count(0) / len(self.hops) if self.hops else 0.0


def verify_total_order(result: RunResult) -> list[int]:
    """Check the run queued every request exactly once; return the order.

    Raises :class:`ProtocolError` on any violation:
    * some request never completed,
    * a request completed twice (caught at record time),
    * the successor relation is not a single chain from the root request.
    """
    rids = range(len(result.schedule))  # a rid is its schedule index
    completed = set(result.rids)
    missing = [rid for rid in rids if rid not in completed]
    if missing:
        raise ProtocolError(f"requests never completed: {missing[:10]}")
    order = result.order  # raises on structural violations
    if sorted(order) != list(rids):
        raise ProtocolError("queuing order does not cover the schedule exactly")
    return order
