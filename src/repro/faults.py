"""Fault injection for arrow runs: crashes, link drops, message loss.

The fault axis (after the dynamic-network characterisations of Casteigts
et al.) applies a declarative :class:`FaultPlan` uniformly across the
engines:

* **node crash** (``crash@<t>:<node>``) — at time ``t`` the node resets
  its pointer to itself and goes down: messages addressed to it are
  dropped on arrival and its own initiations are lost, until the next
  repair (a crash-restart model: the repair pass brings the node back
  with a consistent pointer);
* **link drop window** (``link@<u>-<v>:<t0>-<t1>``) — the tree link
  {u, v} drops every message sent in ``[t0, t1)``, both directions, then
  recovers;
* **i.i.d. message loss** (``loss:<rate>``) — every send independently
  drops with the given probability, drawn from the dedicated
  ``spawn_rng(seed, "fault-loss")`` stream so the network-latency draw
  sequence of surviving messages is untouched.

A dropped ``queue`` message loses its request: the arrow protocol carries
each request in exactly one message, so the request is *accounted lost*
rather than retried — :class:`FaultReport` and the monitors' completion
accounting both track it.

Repair is :mod:`repro.core.stabilize`: at the first quiescent point after
a degradation (no queue messages in flight, checked immediately before
each initiation) and once more at the end of a degraded run, the engine
runs the one-pass stabilisation, restamps the unique repaired sink's
``last_rid`` with a fresh *epoch* rid (:func:`epoch_rid` — stabilisation
can leave a stale tail whose request already has a successor, so every
repair must start a fresh acquisition chain), and brings crashed nodes
back up.  Recovery metrics (corrections applied, repairs run, requests
lost, time from first degradation to repair) come back in the
:class:`FaultReport`.

Engine parity: both engines run their open loop with the run's
:class:`_FaultState` — ``engine="fast"`` the one arrow event loop
(:func:`repro.core.fast_arrow._arrow_loop`, whose docstring says why
bit-identity holds), ``engine="message"`` the genuine message-level
simulation (:mod:`repro.core.message`, whose ``Network`` carries the
state and runs its drop checks).  Both drive the same state machine and
produce identical results for identical inputs — the same event order,
the same drops, the same repairs — which the small-model oracle
(``tests/small_models.py``) checks on every single and double crash,
link window and seeded loss plan it enumerates.  This module imports the
message engine only when a run asks for it, so a faulted fast sweep
loads none of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.engines import ENGINES, engine_error_message
from repro.core.fast_arrow import _open_loop
from repro.core.stabilize import find_violations_links, stabilize_links
from repro.errors import FaultPlanError, NetworkError, ProtocolError, require_time
from repro.fault_plan import FaultPlan, parse_fault_plan
from repro.graphs.graph import Graph
from repro.graphs.validation import require_spanning_subgraph
from repro.net.latency import LatencyModel
from repro.sim.rng import DrawStream, spawn_rng
from repro.spanning.tree import SpanningTree

if TYPE_CHECKING:
    from repro.core.queueing import RunResult
    from repro.core.requests import RequestSchedule

__all__ = [
    "FaultReport",
    "epoch_rid",
    "run_arrow_faulted",
]


def epoch_rid(k: int) -> int:
    """The fresh rid minted for the ``k``-th repair's sink (k from 0).

    Negative and below both sentinels (``ROOT_RID`` = -1, ``NO_RID`` =
    -2), so epoch rids can never collide with schedule rids or either
    sentinel.
    """
    return -3 - k


@dataclass(slots=True)
class FaultReport:
    """Recovery metrics of one faulted run."""

    requests_lost: int = 0
    messages_dropped: int = 0
    corrections_applied: int = 0
    repairs_run: int = 0
    #: Summed time from each degradation's first fault event to the
    #: repair that cleared it.
    time_to_recovery: float = 0.0
    lost_rids: tuple[int, ...] = ()
    #: Illegal tree edges remaining after the run (0 unless repair is
    #: broken — asserted by the tests, reported for auditability).
    final_violations: int = 0

    def as_columns(self) -> dict[str, float | int]:
        """The persisted sweep-row columns for this report."""
        return {
            "requests_lost": self.requests_lost,
            "messages_dropped": self.messages_dropped,
            "corrections_applied": self.corrections_applied,
            "repairs_run": self.repairs_run,
            "time_to_recovery": self.time_to_recovery,
        }


def _drop_windows(
    plan: FaultPlan, tree: SpanningTree
) -> dict[int, tuple[tuple[float, float], ...]]:
    """Link-drop windows keyed by the tree edge's child endpoint."""
    parent = tree.parent
    out: dict[int, list[tuple[float, float]]] = {}
    for u, v, t0, t1 in plan.link_drops:
        if parent[u] == v:
            child = u
        elif parent[v] == u:
            child = v
        else:
            raise FaultPlanError(
                f"link {u}-{v} is not a spanning-tree edge of this run"
            )
        out.setdefault(child, []).append((t0, t1))
    return {c: tuple(ws) for c, ws in out.items()}


class _FaultState:
    """Shared fault bookkeeping: drop decisions, degradation, recovery.

    One instance per run; both the fast engine's event loop and the
    message engine's network drive the same state machine, which is
    what keeps the engines' fault semantics identical.  Each engine seeds
    the plan's ``crashes`` as events of its own.
    """

    __slots__ = (
        "tree",
        "crashes",
        "parent",
        "down",
        "windows",
        "loss_rate",
        "loss_coin",
        "in_flight",
        "degraded",
        "degraded_since",
        "lost",
        "report",
        "emit",
    )

    def __init__(self, tree: SpanningTree, plan: FaultPlan, seed: int) -> None:
        self.tree = tree
        self.crashes = plan.crashes
        self.parent = tree.parent
        self.down = [False] * tree.num_nodes
        self.windows = _drop_windows(plan, tree)
        self.loss_rate = plan.loss_rate
        # The dedicated ``fault-loss`` stream: one uniform [0, 1) draw
        # per send that survives the link windows, in send order.
        self.loss_coin = (
            DrawStream(spawn_rng(seed, "fault-loss")).random
            if plan.loss_rate > 0.0
            else None
        )
        self.in_flight = 0
        self.degraded = False
        self.degraded_since = 0.0
        self.lost: set[int] = set()
        self.report = FaultReport()
        #: The run's event-stream ``append``, set by whoever owns the
        #: stream (``_arrow_loop`` / the message harness) so fault and
        #: protocol events land in one list, in order; ``None`` unwatched.
        self.emit = None

    # -- degradation ----------------------------------------------------
    def _degrade(self, now: float) -> None:
        if not self.degraded:
            self.degraded = True
            self.degraded_since = now

    def crash(self, node: int, now: float) -> None:
        """Apply a crash event; the caller resets the node's pointer."""
        self.down[node] = True
        self._degrade(now)
        if self.emit is not None:
            self.emit(("crash", node, now))

    # -- drop decisions (checked in this order on both engines) ---------
    def drops_send(self, src: int, dst: int, rid: int, now: float) -> bool:
        """Fault check for one send; records the drop if it happens.

        The link-down window is checked first (no draw); only then does a
        positive loss rate consume one ``fault-loss`` draw — so the draw
        sequence is a pure function of the surviving-send order.
        """
        child = dst if self.parent[dst] == src else src
        for t0, t1 in self.windows.get(child, ()):
            if t0 <= now < t1:
                self._record_drop(rid, src, dst, now)
                return True
        if self.loss_coin is not None and self.loss_coin() < self.loss_rate:
            self._record_drop(rid, src, dst, now)
            return True
        return False

    def drops_arrival(self, src: int, dst: int, rid: int, now: float) -> bool:
        """Drop messages reaching a crashed node (the message was in flight)."""
        if not self.down[dst]:
            return False
        self.in_flight -= 1
        self._record_drop(rid, src, dst, now)
        return True

    def _record_drop(self, rid: int, src: int, dst: int, now: float) -> None:
        self.report.messages_dropped += 1
        self.lost.add(rid)
        self._degrade(now)
        if self.emit is not None:
            self.emit(("drop", rid, src, dst, now))

    def drop_initiation(self, rid: int, node: int, now: float) -> None:
        """A request issued on a down node is lost outright (no message)."""
        self.lost.add(rid)
        if self.emit is not None:
            self.emit(("drop", rid, -1, node, now))

    # -- repair ---------------------------------------------------------
    def repair_due(self) -> bool:
        """Repair runs only at quiescent points: degraded, nothing in flight."""
        return self.degraded and self.in_flight == 0

    def repair(self, link: list[int], now: float) -> tuple[int, int]:
        """Stabilise ``link`` in place; returns ``(sink, epoch_rid)``.

        The caller must restamp ``last_rid[sink]`` with the returned
        epoch rid — a repaired sink's stale tail may already have a
        successor, so every repair starts a fresh acquisition chain.
        """
        rep = self.report
        fixes = stabilize_links(link, self.tree)
        sink = next(v for v, x in enumerate(link) if x == v)
        er = epoch_rid(rep.repairs_run)
        rep.corrections_applied += fixes
        rep.repairs_run += 1
        rep.time_to_recovery += now - self.degraded_since
        for v in range(len(self.down)):
            self.down[v] = False
        self.degraded = False
        if self.emit is not None:
            self.emit(("repair", fixes, er, sink, now))
        return sink, er

    # -- epilogue -------------------------------------------------------
    def finish(
        self, link: list[int], completions: int, total: int
    ) -> FaultReport:
        rep = self.report
        rep.requests_lost = len(self.lost)
        rep.lost_rids = tuple(sorted(self.lost))
        rep.final_violations = len(find_violations_links(link, self.tree))
        if completions + rep.requests_lost != total:
            raise ProtocolError(
                f"faulted run accounted {completions} completions + "
                f"{rep.requests_lost} lost of {total} requests"
            )
        return rep


# ----------------------------------------------------------------------
# public entry point
# ----------------------------------------------------------------------
def run_arrow_faulted(
    graph: Graph,
    tree: SpanningTree,
    schedule: RequestSchedule,
    plan: FaultPlan | str,
    *,
    engine: str = "fast",
    latency: LatencyModel | None = None,
    seed: int = 0,
    service_time: float = 0.0,
    max_events: int | None = None,
    on_event=None,
) -> tuple[RunResult, FaultReport]:
    """Run the arrow protocol under a fault plan; results plus recovery report.

    Accepts the open-loop model knobs of :func:`repro.core.message.run_arrow`
    plus the ``engine`` selector (one of :data:`repro.core.engines.ENGINES`).
    For the empty plan the returned :class:`RunResult` is bit-identical
    to the fault-free engines' — the run builds no fault state and takes
    the selected engine's stock path, so an empty plan costs nothing
    beyond the checks.  ``on_event`` is called with lists of event tuples
    (:mod:`repro.core.event_stream`) — the protocol trace *including* the
    fault vocabulary (``drop``/``crash``/``repair``), so an attached
    :class:`repro.monitors.ArrowMonitor` audits the recovery path too.
    """
    if engine not in ENGINES:
        raise ValueError(engine_error_message(engine))
    if isinstance(plan, str):
        plan = parse_fault_plan(plan)
    service_time = require_time("service_time", service_time, NetworkError)
    schedule.validate_nodes(graph.num_nodes)
    require_spanning_subgraph(graph, [(u, v) for u, v, _ in tree.edges()])
    plan.validate_nodes(graph.num_nodes)
    open_loop = _open_loop
    if engine == "message":
        from repro.core.message import _open_loop as open_loop
    faults = None if plan.empty else _FaultState(tree, plan, seed)
    result, link = open_loop(
        graph,
        tree,
        schedule,
        faults,
        latency=latency,
        seed=seed,
        service_time=service_time,
        max_events=max_events,
        on_event=on_event,
    )
    if faults is None:
        return result, FaultReport()
    return result, faults.finish(link, len(result.rids), len(schedule))
