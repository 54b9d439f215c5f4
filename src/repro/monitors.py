"""Declarative runtime monitors for arrow protocol traces.

The arrow engines (message and fast — open and closed loop) accept an
``on_event`` *sink* — a callable taking a list of event tuples — and, when
it is set, append one tuple per protocol transition to a chunk list and
hand the list to the sink a chunk at a time
(:mod:`repro.core.event_stream`; the engine reuses the list, so a sink
must not retain it).  :class:`ArrowMonitor` is such a sink: it replays
each chunk and checks the Kuhn–Wattenhofer invariants by maintaining an
independent mirror of the spec's state machine (``link`` pointers,
``last_rid`` tails, the set of in-flight ``queue`` messages) and
validating every event against it:

``one-pointer-per-edge``
    every spanning-tree edge is crossed by exactly one arrow — a pointer
    crossing or an in-flight message traversing it;
``unique-sink``
    the number of sinks always equals the number of in-flight messages
    plus one (exactly one queue tail per quiescent region);
``token-conservation``
    no request is lost or duplicated: each issued rid completes at most
    once, every in-flight message is delivered (or explicitly dropped by
    an injected fault) exactly once;
``total-order``
    completions form a single successor chain — every predecessor has at
    most one successor, and the chain starts at the virtual root request
    (or, after a repair, at a repair epoch);
``completion-accounting``
    at the end of the run every issued request either completed or is
    accounted lost to an injected fault.

The protocol's transitions are atomic, so a *correct* engine preserves
the edge/sink invariants at every event boundary; the per-event checks
therefore validate each transition against the mirror (send target must
equal the mirrored pointer, delivery must match an in-flight message,
a completion's predecessor must match the mirrored tail), which is both
exact and O(1) per event.  ``deep=True`` additionally rescans the whole
configuration after every atomic transition — O(n) per event, meant for
small instances such as the small-model oracle's
(``tests/small_models.py``).  The monitor only ever
reads its own mirror, so replaying a chunk after the engine has moved on
is exactly the check it would have made at the time; only the moment of
the raise moves, to the end of the chunk (or of the run, on the
message-level harnesses).

Fault events (:mod:`repro.faults`) put the monitor in a *degraded* mode
in which the configuration invariants are suspended — a crash or a lost
message legitimately breaks them — until the engine's ``repair`` event,
at which point the monitor replays the same
:func:`repro.core.stabilize.stabilize_links` pass on its mirror,
cross-checks the engine's correction count and epoch bookkeeping, and
re-arms the invariants.

Violations raise :class:`repro.errors.MonitorViolation` (under
``SweepError``), which names the invariant, the simulation time and the
ordinal of the offending event in the run's stream.  Monitors never touch
the run's results: a monitored fault-free sweep writes byte-identical
JSONL to an unmonitored one.
"""

from __future__ import annotations

from repro.core.requests import ROOT_RID
from repro.core.stabilize import find_violations_links, stabilize_links
from repro.errors import MonitorViolation
from repro.spanning.tree import SpanningTree

__all__ = ["ArrowMonitor", "MONITOR_NAMES"]

#: The invariant checkers an :class:`ArrowMonitor` enforces, by the name
#: each reports in :class:`~repro.errors.MonitorViolation.monitor`.
MONITOR_NAMES = (
    "one-pointer-per-edge",
    "unique-sink",
    "token-conservation",
    "total-order",
    "completion-accounting",
)


class ArrowMonitor:
    """Streaming invariant checker for one arrow run.

    Attach by passing the instance as the engine's ``on_event``: the
    engine calls it with lists of event tuples, a chunk at a time (a
    hand-built stream is checked the same way, ``monitor(events)``); call
    :meth:`finalize` after the run returns.  The event tuples (all times
    are simulation times):

    ``("init", rid, node, t)``
        request ``rid`` issued at ``node`` (atomic initiation);
    ``("send", rid, src, dst, t)``
        the request's ``queue`` message traverses tree link src→dst;
    ``("deliver", rid, node, src, t)``
        the message from ``src`` is handled at ``node`` (path reversal);
    ``("complete", rid, pred, node, t, hops)``
        ``rid`` queued behind ``pred``; ``node`` was the sink;
    ``("drop", rid, src, dst, t)``
        fault injection lost the message (``src == -1``: a request whose
        initiation fired on a crashed node);
    ``("crash", node, t)``
        ``node`` crashed: pointer reset to itself, arrivals dropped;
    ``("repair", corrections, epoch_rid, sink, t)``
        the engine ran the stabilisation pass at a quiescent point.
    """

    __slots__ = (
        "tree",
        "deep",
        "_n",
        "_parent",
        "_link",
        "_last_rid",
        "_sinks",
        "_in_flight",
        "_edge_msgs",
        "_expect_send",
        "_expect_complete",
        "_issued",
        "_completed",
        "_succ",
        "_lost",
        "_down",
        "_degraded",
        "_epochs",
        "_events",
        "violation_count",
    )

    def __init__(self, tree: SpanningTree, *, deep: bool = False) -> None:
        self.tree = tree
        self.deep = deep
        n = tree.num_nodes
        self._n = n
        self._parent = list(tree.parent)
        # Mirror of the initial configuration (ArrowNode.init_pointers).
        self._link = self._parent[:]
        self._link[tree.root] = tree.root
        self._last_rid = [None] * n
        self._last_rid[tree.root] = ROOT_RID
        self._sinks = 1
        #: rid -> (src, dst) of its in-flight queue message.
        self._in_flight: dict[int, tuple[int, int]] = {}
        #: child node -> in-flight messages crossing the edge to its parent.
        self._edge_msgs = [0] * n
        #: rid -> (src, dst) send the mirrored transition mandates next.
        self._expect_send: dict[int, tuple[int, int]] = {}
        #: rid -> (pred, node) completion the mirrored transition mandates.
        self._expect_complete: dict[int, tuple[int, int]] = {}
        self._issued: set[int] = set()
        self._completed: set[int] = set()
        self._succ: dict[int, int] = {}
        self._lost: set[int] = set()
        self._down: set[int] = set()
        self._degraded = False
        #: Epoch rids minted by repairs — legal chain heads besides ROOT_RID.
        self._epochs: set[int] = set()
        self._events = 0
        self.violation_count = 0

    # ------------------------------------------------------------------
    def _fail(self, monitor: str, at: float | None, msg: str) -> None:
        self.violation_count += 1
        raise MonitorViolation(
            f"[{monitor}] {msg}", monitor=monitor, at=at
        )

    def _edge_child(self, u: int, v: int, at: float) -> int:
        """The child endpoint of tree edge {u, v} (the edge's index)."""
        if self._parent[u] == v:
            return u
        if self._parent[v] == u:
            return v
        self._fail(
            "one-pointer-per-edge", at,
            f"message traverses non-tree edge ({u}, {v})",
        )
        raise AssertionError("unreachable")

    # ------------------------------------------------------------------
    def __call__(self, events: list[tuple]) -> None:
        """Replay one chunk of the run's event stream against the mirror.

        The sink side of ``on_event(events)``: the four hot kinds are
        checked inline on locals, in frequency order; fault events go to
        their methods.  The list is only read, never kept.  A violation
        carries the ordinal of its event in the run's stream.
        """
        link = self._link
        last_rid = self._last_rid
        parent = self._parent
        edge_msgs = self._edge_msgs
        in_flight = self._in_flight
        expect_send = self._expect_send
        expect_complete = self._expect_complete
        issued = self._issued
        completed = self._completed
        succ = self._succ
        down = self._down
        deep = self.deep
        sinks = self._sinks
        first = self._events
        i = -1
        try:
            for i, ev in enumerate(events):
                kind = ev[0]
                if kind == "complete":
                    _, rid, pred, node, t, _hops = ev
                    want = expect_complete.pop(rid, None)
                    if want is None:
                        self._fail(
                            "token-conservation", t,
                            f"request {rid} completed at {node} without reaching a sink",
                        )
                    if rid in completed:
                        self._fail(
                            "token-conservation", t, f"request {rid} completed twice"
                        )
                    want_pred, want_node = want
                    if node != want_node:
                        self._fail(
                            "unique-sink", t,
                            f"request {rid} completed at {node}, but the mirrored sink "
                            f"is {want_node}",
                        )
                    if want_pred is None or pred != want_pred:
                        self._fail(
                            "total-order", t,
                            f"request {rid} queued behind {pred}, but the sink's "
                            f"mirrored tail is {want_pred}",
                        )
                    if pred in succ:
                        self._fail(
                            "total-order", t,
                            f"requests {succ[pred]} and {rid} both queued "
                            f"behind {pred}",
                        )
                    succ[pred] = rid
                    completed.add(rid)
                elif kind == "init":
                    _, rid, node, t = ev
                    if rid in issued:
                        self._fail(
                            "token-conservation", t, f"request {rid} issued twice"
                        )
                    issued.add(rid)
                    if node in down:
                        self._fail(
                            "token-conservation", t,
                            f"request {rid} issued on crashed node {node}",
                        )
                    x = link[node]
                    if x == node:
                        # Local find: the mirror mandates an immediate
                        # completion behind the node's previous request.
                        expect_complete[rid] = (last_rid[node], node)
                    else:
                        link[node] = node
                        sinks += 1
                        expect_send[rid] = (node, x)
                    last_rid[node] = rid
                elif kind == "send":
                    _, rid, src, dst, t = ev
                    want = expect_send.pop(rid, None)
                    if want is None:
                        self._fail(
                            "token-conservation", t,
                            f"request {rid}: send {src}->{dst} without a pending "
                            "initiation or forward",
                        )
                    if want[0] != src or want[1] != dst:
                        self._fail(
                            "one-pointer-per-edge", t,
                            f"request {rid}: sent {src}->{dst} but the mirrored "
                            f"pointer mandates {want[0]}->{want[1]}",
                        )
                    in_flight[rid] = want
                    edge_msgs[
                        src if parent[src] == dst else self._edge_child(src, dst, t)
                    ] += 1
                elif kind == "deliver":
                    _, rid, node, src, t = ev
                    flight = in_flight.pop(rid, None)
                    if flight is None:
                        self._fail(
                            "token-conservation", t,
                            f"request {rid} delivered at {node} but not in flight",
                        )
                    if flight[0] != src or flight[1] != node:
                        self._fail(
                            "token-conservation", t,
                            f"request {rid} delivered at {node} from {src} but was "
                            f"in flight {flight[0]}->{flight[1]}",
                        )
                    if node in down:
                        self._fail(
                            "token-conservation", t,
                            f"request {rid} delivered at crashed node {node}",
                        )
                    edge_msgs[
                        src if parent[src] == node else self._edge_child(src, node, t)
                    ] -= 1
                    # Path reversal on the mirror.
                    x = link[node]
                    link[node] = src
                    if x == node:
                        sinks -= 1
                        expect_complete[rid] = (last_rid[node], node)
                    else:
                        expect_send[rid] = (node, x)
                else:
                    # Fault events are rare and keep their methods; those
                    # read and write the sink count on the instance.
                    t = ev[-1]
                    self._sinks = sinks
                    if kind == "drop":
                        self._on_drop(*ev[1:])
                    elif kind == "crash":
                        self._on_crash(*ev[1:])
                    elif kind == "repair":
                        self._on_repair(*ev[1:])
                    else:
                        self._fail("token-conservation", None, f"unknown event {kind!r}")
                    sinks = self._sinks
                if deep and not expect_send and not expect_complete:
                    self._sinks = sinks
                    self._check_config(t)
        except MonitorViolation as exc:
            exc.locate(first + i)
            raise
        finally:
            self._sinks = sinks
            self._events = first + i + 1

    # ------------------------------------------------------------------
    # fault events
    # ------------------------------------------------------------------
    def _on_drop(self, rid: int, src: int, dst: int, t: float) -> None:
        self._degraded = True
        if src < 0:
            # A request whose initiation fired on a crashed node: it was
            # never issued into the protocol, only accounted lost.
            if rid in self._issued:
                self._fail(
                    "token-conservation", t,
                    f"request {rid} dropped at initiation but already issued",
                )
            self._lost.add(rid)
            return
        flight = self._in_flight.pop(rid, None)
        if flight != (src, dst):
            self._fail(
                "token-conservation", t,
                f"request {rid}: drop of {src}->{dst} does not match the "
                f"in-flight message {flight}",
            )
        self._edge_msgs[self._edge_child(src, dst, t)] -= 1
        self._lost.add(rid)

    def _on_crash(self, node: int, t: float) -> None:
        self._degraded = True
        self._down.add(node)
        if self._link[node] != node:
            self._sinks += 1
        self._link[node] = node

    def _on_repair(
        self, corrections: int, epoch_rid: int, sink: int, t: float
    ) -> None:
        if self._in_flight:
            self._fail(
                "unique-sink", t,
                f"repair ran with {len(self._in_flight)} messages in flight "
                "(not a quiescent point)",
            )
        # Replay the one-pass stabilisation on the mirror and cross-check
        # the engine's bookkeeping against it.
        fixes = stabilize_links(self._link, self.tree)
        if fixes != corrections:
            self._fail(
                "one-pointer-per-edge", t,
                f"engine repair applied {corrections} corrections, the "
                f"mirror's stabilisation pass applied {fixes}",
            )
        bad = find_violations_links(self._link, self.tree)
        if bad:
            self._fail(
                "one-pointer-per-edge", t,
                f"configuration still illegal after repair: {bad[:3]}",
            )
        sinks = sum(1 for v in range(self._n) if self._link[v] == v)
        if sinks != 1 or self._link[sink] != sink:
            self._fail(
                "unique-sink", t,
                f"repair reported sink {sink}, mirror has {sinks} sink(s)",
            )
        self._sinks = 1
        self._last_rid[sink] = epoch_rid
        self._epochs.add(epoch_rid)
        self._down.clear()
        self._degraded = False

    # ------------------------------------------------------------------
    def _check_config(self, at: float | None) -> None:
        """Full O(n) rescan of the edge and sink invariants."""
        if self._degraded:
            return
        link = self._link
        parent = self._parent
        root = self.tree.root
        for v in range(self._n):
            if v == root:
                continue
            p = parent[v]
            c = int(link[v] == p) + int(link[p] == v) + self._edge_msgs[v]
            if c != 1:
                self._fail(
                    "one-pointer-per-edge", at,
                    f"edge ({v}, {p}) crossed by {c} arrows "
                    "(pointers + in-flight messages); exactly 1 required",
                )
        sinks = sum(1 for v in range(self._n) if link[v] == v)
        if sinks != self._sinks:
            self._fail(
                "unique-sink", at,
                f"sink bookkeeping drifted: counted {sinks}, "
                f"tracked {self._sinks}",
            )
        if sinks != len(self._in_flight) + 1:
            self._fail(
                "unique-sink", at,
                f"{sinks} sinks with {len(self._in_flight)} in-flight "
                "messages; sinks must equal in-flight + 1",
            )

    # ------------------------------------------------------------------
    def finalize(self, expected: int | None = None) -> None:
        """End-of-run checks; call after the engine returns.

        ``expected`` is the total number of requests the workload issued
        (schedule length / closed-loop budget); when given, every one of
        them must have completed or be accounted lost.
        """
        if self._expect_send or self._expect_complete:
            self._fail(
                "token-conservation", None,
                "run ended mid-transition: "
                f"{len(self._expect_send)} pending sends, "
                f"{len(self._expect_complete)} pending completions",
            )
        if self._in_flight:
            self._fail(
                "token-conservation", None,
                f"run ended with {len(self._in_flight)} messages in flight: "
                f"{sorted(self._in_flight)[:5]}",
            )
        overlap = self._completed & self._lost
        if overlap:
            self._fail(
                "completion-accounting", None,
                f"requests both completed and lost: {sorted(overlap)[:5]}",
            )
        if expected is not None:
            accounted = len(self._completed) + len(self._lost)
            if accounted != expected:
                self._fail(
                    "completion-accounting", None,
                    f"{expected} requests issued, {len(self._completed)} "
                    f"completed + {len(self._lost)} lost = {accounted}",
                )
        # Total order: chain heads must be the virtual root, a repair
        # epoch, or a lost request (whose successor legitimately dangles).
        heads = set(self._succ) - set(self._succ.values())
        allowed = {ROOT_RID} | self._epochs | self._lost
        bad_heads = heads - allowed
        if bad_heads:
            self._fail(
                "total-order", None,
                f"successor chains start at {sorted(bad_heads)[:5]}, which "
                "are neither the root request, a repair epoch, nor lost",
            )
        if not self._epochs and not self._lost and self._succ:
            # Fault-free: one chain from ROOT_RID covering every completion.
            chain = 0
            cur = ROOT_RID
            while cur in self._succ:
                cur = self._succ[cur]
                chain += 1
            if chain != len(self._completed):
                self._fail(
                    "total-order", None,
                    f"root chain covers {chain} of "
                    f"{len(self._completed)} completions",
                )
        if not self._degraded:
            self._check_config(None)

    # ------------------------------------------------------------------
    @property
    def completed(self) -> frozenset[int]:
        """Rids whose completion the monitor observed."""
        return frozenset(self._completed)

    @property
    def lost(self) -> frozenset[int]:
        """Rids accounted lost to injected faults."""
        return frozenset(self._lost)
