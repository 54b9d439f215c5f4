"""The routed flat loop: §5's closed loops and every routed protocol.

:func:`closed_loop_arrow_fast` and :func:`closed_loop_centralized_fast`
replay the full closed-loop dynamics of :mod:`repro.core.message` —
per-processor request budgets, ``think_time`` between operations,
per-node sequential ``service_time``, and the routed ``queue_reply``
acknowledgements over ``G`` — on a flat binary heap over ``(time, seq)``
tuples with plain array node state.  No :class:`~repro.core.message.Message`
objects, no per-event callback, no :class:`~repro.core.message.Network`
dispatch.  Routed delays are the network's own: each run builds one
:class:`~repro.net.router.Router` over its ``"network-latency"``
stream, as a ``Network`` does, so a routed send reads the same cached
route (a shortest path by Dijkstra, or by BFS on unit weights) and makes
the same draws in both engines.  Under a deterministic latency model the
closed centralized loop does not ask the router per send: it reads each
node's two centre routes from node-indexed tables, filled at the node's
first creq; a stochastic model draws per send, in the same order.

The arrow run is a configuration of the one arrow event loop,
:func:`repro.core.fast_arrow._arrow_loop`; every protocol whose sends are
all routed runs on :func:`_central_loop`: one flat ``while`` over the
same heap tuples, whose branches are the closed centralized loop's
issue, service stage, enqueue at the centre and acknowledgement — and,
with tags of their own, the §5.1 home directory's stages
(:func:`repro.apps.directory.home_directory`) and the ``ratio`` family's
open-loop baselines, §5's centralized queue (:func:`run_centralized`)
and the §1.1 NTA/Ivy pointers (:func:`run_adaptive`).  Both loops hold
the one event a transition schedules and take the next with
``heappushpop`` — one sift per event (see ``_arrow_loop``'s docstring
for why the order is unchanged).

Every run is **bit-identical** to its message-level version
(:mod:`repro.core.message`; the baselines' in
``tests/open_loop_oracles.py``): same makespan, completions, hops,
latencies, issue/ack times, message totals, tie-breaking and RNG draws,
which the small-model oracle (``tests/small_models.py``) checks on every
small run it enumerates; ``_arrow_loop``'s docstring says why that is
achievable, and the same argument covers this loop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush, heappushpop

from repro.core.engines import engine_error_message
from repro.core.fast_arrow import (
    _ACK_ARRIVE,
    _ACK_DISPATCH,
    _ACQUIRE,
    _ARRIVE,
    _DISPATCH,
    _ISSUE,
    _OBJECT_ARRIVE,
    _RELEASE,
    _arrow_loop,
    _raise_livelock,
)
from repro.core.queueing import RunResult
from repro.core.requests import NO_RID, ROOT_RID, RequestSchedule
from repro.errors import GraphError, NetworkError, ProtocolError, ScheduleError, require_time
from repro.graphs.graph import Graph
from repro.net.latency import LatencyModel, UnitLatency
from repro.net.router import Router
from repro.sim.rng import spawn_rng
from repro.spanning.tree import SpanningTree

__all__ = [
    "ClosedLoopResult",
    "check_center",
    "closed_loop_arrow_fast",
    "closed_loop_centralized_fast",
    "closed_loop_runner",
    "run_adaptive",
    "run_centralized",
]


@dataclass(slots=True)
class ClosedLoopResult:
    """Aggregate outcome of one closed-loop run."""

    protocol: str
    num_procs: int
    requests_per_proc: int
    #: Simulation time at which the last acknowledgement arrived — the
    #: paper's "total latency for N enqueues per processor" measurement.
    makespan: float = 0.0
    completions: int = 0
    #: Queue-message link traversals per request (Fig. 11's metric).
    hops: list[int] = field(default_factory=list)
    #: Requests whose predecessor was found locally (zero messages).
    local_finds: int = 0
    messages_sent: int = 0
    #: Issue time of request ``rid`` (rid-indexed; rids are assigned in
    #: issue order, so this list is built by appending).
    issue_times: list[float] = field(default_factory=list)
    #: Time the acknowledgement of request ``rid`` was handled at its
    #: origin (rid-indexed; ``-1.0`` until the ack arrives).
    ack_times: list[float] = field(default_factory=list)
    #: Issuing processor of request ``rid`` (rid-indexed).
    owners: list[int] = field(default_factory=list)
    #: Per-request completion latency (Definition 3.2: completion time
    #: minus issue time), appended in completion order like ``hops``.
    latencies: list[float] = field(default_factory=list)

    def record(
        self, rid: int, predecessor: int, informed_node: int, completed_at: float, hops: int
    ) -> None:
        """Count one completion.

        The signature is the protocol nodes' completion callback, as
        :meth:`RunResult.record`'s is, so the message engine passes this
        method to them; the flat loops append in place.
        """
        self.completions += 1
        self.hops.append(hops)
        self.latencies.append(completed_at - self.issue_times[rid])
        if hops == 0:
            self.local_finds += 1

    @property
    def total_requests(self) -> int:
        """Total requests across all processors."""
        return self.num_procs * self.requests_per_proc

    @property
    def mean_hops(self) -> float:
        """Average queue-message hops per request."""
        return sum(self.hops) / len(self.hops) if self.hops else 0.0

    @property
    def local_find_fraction(self) -> float:
        """Fraction of requests finding their predecessor locally."""
        return self.local_finds / self.completions if self.completions else 0.0


def _check_loop_args(
    requests_per_proc: int, service_time: float, think_time: float
) -> None:
    """Reject out-of-range loop knobs; every closed-loop driver calls this.

    A negative budget would otherwise surface late as "completed 0 of -32
    requests", and a negative or NaN think time would silently run as
    zero.  ``requests_per_proc == 0`` is legal: an empty, complete run.
    """
    require_time("service_time", service_time, NetworkError)
    if requests_per_proc < 0:
        raise ScheduleError(
            f"requests_per_proc must be >= 0, got {requests_per_proc}"
        )
    require_time("think_time", think_time, ScheduleError)


def _check_complete(result: ClosedLoopResult) -> None:
    want = result.total_requests
    if result.completions != want:
        raise ProtocolError(
            f"closed loop completed {result.completions} of {want} requests"
        )


def check_center(center: int, n: int) -> None:
    """Reject a centre outside the graph; every centralized driver calls this."""
    if not 0 <= center < n:
        raise NetworkError(f"center {center} out of range for {n} nodes")


def closed_loop_runner(protocol: str, engine: str):
    """Resolve ``(protocol, engine)`` to a closed-loop run function.

    The closed-loop sweep families resolve their engine here.  A sweep's
    ``engine`` (one of :data:`repro.core.engines.ENGINES`) was already
    checked when its :class:`~repro.sweep.spec.SweepSpec` was built; a
    library caller's is checked here, and an unknown protocol or engine
    raises instead of falling back to one of them.
    """
    if protocol not in ("arrow", "centralized"):
        raise ValueError(
            f"protocol must be 'arrow' or 'centralized', got {protocol!r}"
        )
    if engine == "fast":
        return (
            closed_loop_arrow_fast
            if protocol == "arrow"
            else closed_loop_centralized_fast
        )
    if engine == "message":
        from repro.core.message import closed_loop_arrow, closed_loop_centralized

        return closed_loop_arrow if protocol == "arrow" else closed_loop_centralized
    raise ValueError(engine_error_message(engine))


def _driver_state(result: ClosedLoopResult):
    """The seeded event heap and the per-processor request budgets.

    The kernel schedules the n initial issue events before anything else,
    so they own sequence numbers 0..n-1.  The loops fill the result's
    per-request lists in place (``ack_times`` is rid-indexed, hence
    preallocated here), as the message engine's harness does.
    """
    n = result.num_procs
    result.ack_times = [-1.0] * result.total_requests
    heap: list[tuple[float, int, int, int, int, int, int]] = [
        (0.0, p, _ISSUE, p, -1, -1, 0) for p in range(n)
    ]
    return heap, [result.requests_per_proc] * n


def _fill_result(result: ClosedLoopResult, makespan: float, messages: int) -> ClosedLoopResult:
    """Derive the aggregate fields and sanity-check (shared run epilogue)."""
    result.makespan = makespan
    result.completions = len(result.hops)
    result.local_finds = result.hops.count(0)
    result.messages_sent = messages
    _check_complete(result)
    return result


def closed_loop_arrow_fast(
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
    """Closed-loop arrow run, bit-identical to ``closed_loop_arrow``.

    ``on_event``, when set, is called with the queuing-layer protocol
    trace as lists of event tuples, a chunk at a time
    (:mod:`repro.core.event_stream`; the vocabulary is in
    :mod:`repro.monitors`); acknowledgement traffic is application level
    and not part of it.
    """
    _check_loop_args(requests_per_proc, service_time, think_time)
    result = ClosedLoopResult("arrow", graph.num_nodes, requests_per_proc)
    model = latency if latency is not None else UnitLatency()
    # One stream for tree-link sends and routed replies, drawn in event
    # order, like the Network's.
    rng = spawn_rng(seed, "network-latency")
    router = Router(graph, model, rng)
    heap, remaining = _driver_state(result)

    # No schedule: the n issue events on the heap are the request source.
    # The last event of a closed loop is an acknowledgement's dispatch, so
    # the loop's final time is the makespan.
    makespan, messages, _ = _arrow_loop(
        graph,
        tree,
        model,
        service_time,
        rng,
        [],
        [],
        heap,
        max_events,
        on_event,
        driver=(remaining, result.issue_times, result.owners, result.ack_times,
                result.hops, result.latencies, float(think_time), router.delay_hops, None),
    )
    return _fill_result(result, makespan, messages)


# The home directory's stages in _central_loop (arrivals odd, as in
# fast_arrow): the request at the home, the forward to the holder, the
# release notice at the home, and a processor's first request.
_DREQ_ARRIVE, _DREQ, _DFWD_ARRIVE, _DFWD, _DDONE_ARRIVE, _DDONE = range(11, 17)
_DISSUE = 18
# The open loops' stages, above _DISSUE: the centralized queue's creq,
# cinform and initiation, then the NTA/Ivy pointers' request and initiation.
_CREQ_ARRIVE, _CREQ, _CINFORM_ARRIVE, _CINFORM, _CINIT = 19, 20, 21, 22, 24
_NTA_ARRIVE, _NTA, _AINIT = 25, 26, 28


def closed_loop_centralized_fast(
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
    """Closed-loop centralized run, bit-identical to ``closed_loop_centralized``.

    Every delay of this protocol is a routed path (creq to the centre,
    queue_reply back), so the router is the only delay source.
    """
    n = graph.num_nodes
    check_center(center, n)
    _check_loop_args(requests_per_proc, service_time, think_time)
    result = ClosedLoopResult("centralized", n, requests_per_proc)
    model = latency if latency is not None else UnitLatency()
    delay_hops = Router(graph, model, spawn_rng(seed, "network-latency")).delay_hops
    heap, remaining = _driver_state(result)
    # The last event of a closed loop is an acknowledgement's dispatch, so
    # the loop's final time is the makespan.
    makespan, messages = _central_loop(
        n, center, model, service_time, heap, max_events,
        (remaining, result.issue_times, result.owners, result.ack_times, result.hops,
         result.latencies, float(think_time), delay_hops, None),
    )
    return _fill_result(result, makespan, messages)


def run_centralized(
    graph: Graph,
    center: int,
    schedule: RequestSchedule,
    *,
    latency: LatencyModel | None = None,
    seed: int = 0,
    service_time: float = 0.0,
    max_events: int | None = None,
) -> RunResult:
    """Run the §5 centralized baseline on one schedule; same result interface as arrow.

    A request sends ``creq`` to the centre (its own skips this leg), which
    swaps its tail record and informs the previous tail's issuer
    (``cinform``): Definition 3.2's completion, whose hops are both routes'.
    """
    check_center(center, graph.num_nodes)
    return _run_open("centralized", graph, center, schedule, _CINIT,
                     latency, seed, service_time, max_events)


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
    """Run the §1.1 adaptive-pointer baseline (NTA [17], Ivy [15]) on one schedule.

    A request chases ``last`` pointers (all at ``root`` at first), one
    routed ``nta_req`` per step, and every node it visits re-points at the
    requester (Ivy's path shorting); it completes at the node that is its
    own ``last``.  Any graph whose routes exist will do (the protocols
    assume K_n), under any latency model.
    """
    if not 0 <= root < graph.num_nodes:
        raise GraphError(f"root {root} outside the graph's nodes 0..{graph.num_nodes - 1}")
    return _run_open("adaptive", graph, root, schedule, _AINIT,
                     latency, seed, service_time, max_events)


def _run_open(
    protocol: str, graph: Graph, center: int, schedule: RequestSchedule, init: int,
    latency: LatencyModel | None, seed: int, service_time: float, max_events: int | None,
) -> RunResult:
    """The open loops' prologue and epilogue around ``_central_loop``.

    The message kernel schedules the m initiations first, in rid order
    (so time order: a heap), as seqs 0..m-1.  Every routed hop belongs to exactly
    one completion, so ``hops_total`` is the completions' sum.
    """
    schedule.validate_nodes(graph.num_nodes)
    require_time("service_time", service_time, NetworkError)
    model = latency if latency is not None else UnitLatency()
    delay_hops = Router(graph, model, spawn_rng(seed, "network-latency")).delay_hops
    result = RunResult(schedule)
    heap = [(t, rid, init, v, v, rid, 0)
            for rid, (v, t) in enumerate(zip(schedule.nodes, schedule.times))]
    result.makespan, messages = _central_loop(
        graph.num_nodes, center, model, service_time, heap, max_events,
        (None, None, None, None, None, None, 0.0, delay_hops, result),
    )
    if len(result.rids) != len(schedule):
        raise ProtocolError(
            f"{protocol} run completed {len(result.rids)} of {len(schedule)} requests"
        )
    result.network_stats = {"messages_sent": messages, "link_messages": 0,
                             "routed_messages": messages, "hops_total": sum(result.hops)}
    return result


def _central_loop(
    n: int, center: int, latency: LatencyModel, service_time: float, heap: list[tuple],
    max_events: int | None, driver: tuple,
) -> tuple[float, int]:
    """The routed loop: the §5 baseline, the §5.1 home directory, or an open loop.

    Returns ``(time of the last event, messages sent)``.  ``driver`` is
    ``_arrow_loop``'s, with ``Router.delay_hops``: every send is routed.
    Its last entry is ``None`` (the closed loop), the home directory's
    ``(cs_time, intervals)`` with ``_DISSUE`` events on the heap, or an
    open loop's ``RunResult`` with ``_CINIT`` or ``_AINIT`` (NTA/Ivy
    pointers rooted at ``center``) events; unused lists are ``None``.
    """
    (remaining, issue_times, owners, ack_times, hops_list, latencies, think,
     delay_hops, stages) = driver
    service = float(service_time)
    # The centre routes by node: (delay, hops) of v's creq, and of the ack
    # back to v.  A deterministic route never changes, so a node's pair is
    # kept from its first creq on; routing no sooner raises an unreachable
    # centre where a per-send route would, and a run with no request
    # routes nothing.  A stochastic model leaves them empty and draws per
    # send.  The centre's own ack has no edge: (0.0, 0), as the router's.
    tabled = not latency.stochastic
    to_center: list[tuple[float, int] | None] = [None] * n
    from_center: list[tuple[float, int] | None] = [None] * n
    from_center[center] = (0.0, 0)
    # As in _arrow_loop: without a service time a message is scheduled
    # straight as its dispatch, the tag after its arrival's.
    stage = 0 if service > 0.0 else 1
    arrive, ack_arrive = _ARRIVE + stage, _ACK_ARRIVE + stage
    if stages is None:
        add_owner, add_issue = owners.append, issue_times.append
        add_hops, add_latency = hops_list.append, latencies.append
    elif isinstance(stages, RunResult):
        record = stages.record
        creq_arrive, cinform_arrive = _CREQ_ARRIVE + stage, _CINFORM_ARRIVE + stage
        nta_arrive = _NTA_ARRIVE + stage
        tail_rid, tail_node = ROOT_RID, center  # the centre's tail record
        # NTA/Ivy: every pointer at the root, which holds the root request.
        last = [center] * n
        last_rid = [NO_RID] * n
        last_rid[center] = ROOT_RID
    else:
        cs, add_interval = stages[0], stages[1].append
        object_arrive, dreq_arrive = _OBJECT_ARRIVE + stage, _DREQ_ARRIVE + stage
        dfwd_arrive, ddone_arrive = _DFWD_ARRIVE + stage, _DDONE_ARRIVE + stage
        queue, holder, busy = deque(), center, False  # the home's state

    busy_until = [0.0] * n
    seq = len(heap)
    next_rid = 0
    messages = 0
    fired = 0
    now = 0.0
    nxt = None  # the event the last transition scheduled, not yet pushed
    limit = float("inf") if max_events is None else max_events

    while True:
        if nxt is not None:
            now, _, tag, v, src, rid, hops = heappushpop(heap, nxt)
            nxt = None
        elif heap:
            now, _, tag, v, src, rid, hops = heappop(heap)
        else:
            break
        fired += 1
        if fired > limit:
            _raise_livelock(max_events)

        if tag & 1:
            # Serialise handling at v (Network._arrive); creqs queueing at
            # the centre are the Fig. 10 bottleneck.
            begin = busy_until[v]
            if now > begin:
                begin = now
            finish = begin + service
            busy_until[v] = finish
            nxt = (finish, seq, tag + 1, v, src, rid, hops)
            seq += 1
            continue
        if tag == _ACK_DISPATCH:
            # The acknowledgement at its origin (the harness's ack): record,
            # then re-issue after the think time — or, without one, here.
            ack_times[rid] = now
            if think > 0.0:
                if remaining[v] > 0:
                    nxt = (now + think, seq, _ISSUE, v, -1, -1, 0)
                    seq += 1
                continue
        elif tag > _ACK_DISPATCH:
            if tag > _DISSUE:
                # The open loops.  An event's src is the requester (its
                # initiation's too), except a cinform's: the predecessor.
                if tag > _CINIT:  # NTA/Ivy: path shorting points v at the requester
                    old, last[v] = last[v], src
                    pred = last_rid[v]
                    if tag == _AINIT:
                        last_rid[v] = rid  # the issuer holds the new tail
                    if old == v:  # v held the tail: rid found its predecessor
                        record(rid, pred, v, now, hops)
                        continue
                    delay, more = delay_hops(v, old)
                    nxt = (now + delay, seq, nta_arrive, old, src, rid, hops + more)
                elif tag == _CINFORM:  # v issued the predecessor src
                    record(rid, src, v, now, hops)
                    continue
                elif tag == _CINIT and v != center:  # one routed creq
                    delay, hops = delay_hops(v, center)
                    nxt = (now + delay, seq, creq_arrive, center, v, rid, hops)
                else:  # at the centre: swap the tail, inform the predecessor's issuer
                    pred, pred_node = tail_rid, tail_node
                    tail_rid, tail_node = rid, src
                    delay, more = delay_hops(center, pred_node)
                    nxt = (now + delay, seq, cinform_arrive, pred_node, pred, rid, hops + more)
                seq += 1
                messages += 1
                continue
            # The home directory (_HomeDirectoryNode), one stage per tag.
            if tag == _DREQ or tag == _DDONE:
                # At the home: queue the requester src, or learn that src
                # released and the transfer is over; then serve the head.
                if tag == _DREQ:
                    queue.append(src)
                else:
                    holder, busy = src, False
                if busy or not queue:
                    continue
                v = queue.popleft()
                busy = True
                if v != holder:  # forward to the holder, v in the rid slot
                    at = now + delay_hops(center, holder)[0]
                    nxt = (at, seq, dfwd_arrive, holder, center, v, 0)
                    seq += 1
                    messages += 1
                    continue
                tag = _ACQUIRE  # v holds the object: it acquires at once
            if tag == _ACQUIRE:
                release = now + cs
                add_interval((now, release, v))
                nxt = (release, seq, _RELEASE, v, -1, -1, 0)
                seq += 1
                continue
            if tag == _DFWD:  # the holder v ships the object to rid
                nxt = (now + delay_hops(v, rid)[0], seq, object_arrive, rid, v, -1, 0)
            else:
                if tag == _RELEASE:  # tell the home, then request again
                    at = now + delay_hops(v, center)[0]
                    heappush(heap, (at, seq, ddone_arrive, center, v, -1, 0))
                    seq += 1
                    messages += 1
                # One routed dreq to the home, the home's own too.
                if remaining[v] <= 0:
                    continue
                remaining[v] -= 1
                nxt = (now + delay_hops(v, center)[0], seq, dreq_arrive, center, v, -1, 0)
            seq += 1
            messages += 1
            continue
        if tag != _DISPATCH:
            # Issue (the harness's issue): one routed creq to the centre.
            if remaining[v] <= 0:
                continue
            remaining[v] -= 1
            rid = next_rid
            next_rid += 1
            add_owner(v)
            add_issue(now)
            if v != center:
                route = to_center[v]
                if route is None:
                    route = delay_hops(v, center)
                    if tabled:
                        to_center[v] = route
                        from_center[v] = delay_hops(center, v)
                delay, hops = route
                nxt = (now + delay, seq, arrive, center, v, rid, hops)
                seq += 1
                messages += 1
                continue
            # The centre skips the creq leg and enqueues locally.
            src = v
            hops = 0
        # Enqueue at the centre, the §5 two-message discipline
        # (CentralizedNode._enqueue_at_center): record the completion,
        # then acknowledge the requester with one routed queue_reply.
        add_hops(hops)
        add_latency(now - issue_times[rid])
        back = from_center[src]
        if back is None:
            back = delay_hops(center, src)
        at = now if src == center else now + back[0]
        nxt = (at, seq, ack_arrive, src, -1, rid, 0)
        seq += 1
        messages += 1
    return now, messages
