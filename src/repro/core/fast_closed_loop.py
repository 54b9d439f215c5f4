"""Fast closed-loop engine: the §5 measurement loop without the message layer.

:func:`closed_loop_arrow_fast` and :func:`closed_loop_centralized_fast`
replay the full closed-loop dynamics of :mod:`repro.workloads.closed_loop`
— per-processor request budgets, ``think_time`` between operations,
per-node sequential ``service_time``, and the routed ``queue_reply``
acknowledgements over ``G`` — on a flat binary heap over ``(time, seq)``
tuples with plain array node state.  No :class:`~repro.net.message.Message`
objects, no per-event callback, no :class:`~repro.net.network.Network`
dispatch.  Routed delays are the network's own: each run builds one
:class:`~repro.net.network.Router` over its ``"network-latency"``
stream, as a ``Network`` does, so a routed send reads the same cached
route (a shortest path by Dijkstra, or by BFS on unit weights) and makes
the same draws in both engines.  Under a deterministic latency model the
centralized loop does not ask the router per send: every creq goes to
the one centre and every ack comes back from it, so it reads each node's
two centre routes from node-indexed tables, filled at the node's first
creq; a stochastic model draws per send, in the same order.

The arrow run is a configuration of the one arrow event loop,
:func:`repro.core.fast_arrow._arrow_loop` (seeded with the
n initial issue events and handed the driver state); the centralized
baseline is a different protocol with its own loop in
:func:`closed_loop_centralized_fast`: one flat ``while`` over the same
heap tuples, whose branches are the issue, the service stage, the
enqueue at the centre and the acknowledgement.  Both loops hold the one
event a transition schedules and take the next with ``heappushpop`` —
one sift per event (see ``_arrow_loop``'s docstring for why the order
is unchanged).

The produced :class:`~repro.workloads.closed_loop.ClosedLoopResult` is
**bit-identical** to the message-level drivers' (same makespan, per-request
hops and latencies, issue/ack times, message totals, tie-breaking and RNG
draws), which the small-model oracle (``tests/small_models.py``) checks on
every small closed loop it enumerates; ``_arrow_loop``'s docstring says
why that is achievable, and the same argument covers the centralized loop.
"""

from __future__ import annotations

from heapq import heappop, heappushpop

from repro.core.centralized import check_center
from repro.core.fast_arrow import (
    _ACK_ARRIVE,
    _ACK_DISPATCH,
    _ARRIVE,
    _DISPATCH,
    _ISSUE,
    _arrow_loop,
    _raise_livelock,
    engine_error_message,
)
from repro.graphs.graph import Graph
from repro.net.latency import LatencyModel, UnitLatency
from repro.net.network import Router
from repro.sim.rng import spawn_rng
from repro.spanning.tree import SpanningTree
from repro.workloads.closed_loop import (
    ClosedLoopResult,
    _check_complete,
    _check_loop_args,
)

__all__ = [
    "closed_loop_arrow_fast",
    "closed_loop_centralized_fast",
    "closed_loop_runner",
]


def closed_loop_runner(protocol: str, engine: str):
    """Resolve ``(protocol, engine)`` to a closed-loop run function.

    The closed-loop sweep families resolve their engine here.  A sweep's
    ``engine`` (one of :data:`repro.core.fast_arrow.ENGINES`) was already
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
        from repro.workloads.closed_loop import (
            closed_loop_arrow,
            closed_loop_centralized,
        )

        return closed_loop_arrow if protocol == "arrow" else closed_loop_centralized
    raise ValueError(engine_error_message(engine))


def _driver_state(result: ClosedLoopResult):
    """The seeded event heap and the per-processor request budgets.

    The kernel schedules the n initial issue events before anything else,
    so they own sequence numbers 0..n-1.  The loops fill the result's
    per-request lists in place (``ack_times`` is rid-indexed, hence
    preallocated here), as the message-level ``_Driver`` does.
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
        driver=(
            remaining,
            result.issue_times,
            result.owners,
            result.ack_times,
            result.hops,
            result.latencies,
            float(think_time),
            router.delay_hops,
        ),
    )
    return _fill_result(result, makespan, messages)


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
    # The centre routes by node: (delay, hops) of v's creq, and of the ack
    # back to v.  A deterministic route never changes, so a node's pair is
    # kept from its first creq on; routing no sooner raises an unreachable
    # centre where a per-send route would, and a run with no request
    # routes nothing.  A stochastic model leaves them empty and draws per
    # send.  The centre's own ack has no edge: (0.0, 0), as the router's.
    tabled = not model.stochastic
    to_center: list[tuple[float, int] | None] = [None] * n
    from_center: list[tuple[float, int] | None] = [None] * n
    from_center[center] = (0.0, 0)
    service = float(service_time)
    think = float(think_time)
    # As in _arrow_loop: without a service time a message is scheduled
    # straight as its dispatch.
    arrive, ack_arrive = (
        (_ARRIVE, _ACK_ARRIVE) if service > 0.0 else (_DISPATCH, _ACK_DISPATCH)
    )

    busy_until = [0.0] * n
    heap, remaining = _driver_state(result)
    issue_times, ack_times = result.issue_times, result.ack_times
    add_owner = result.owners.append
    add_issue = issue_times.append
    add_hops = result.hops.append
    add_latency = result.latencies.append
    seq = n
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

        if tag == _ARRIVE or tag == _ACK_ARRIVE:
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
            # The acknowledgement at its origin (_Driver.on_ack): record,
            # then re-issue after the think time — or, without one, here.
            ack_times[rid] = now
            if think > 0.0:
                if remaining[v] > 0:
                    nxt = (now + think, seq, _ISSUE, v, -1, -1, 0)
                    seq += 1
                continue
        if tag != _DISPATCH:
            # Issue (_Driver.issue): one routed creq to the centre.
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
        # (CentralizedNode._enqueue_at_center in reply_mode): record the
        # completion, then acknowledge the requester with one routed
        # queue_reply.
        add_hops(hops)
        add_latency(now - issue_times[rid])
        back = from_center[src]
        if back is None:
            back = delay_hops(center, src)
        at = now if src == center else now + back[0]
        nxt = (at, seq, ack_arrive, src, -1, rid, 0)
        seq += 1
        messages += 1
    # The last event of a closed loop is an acknowledgement's dispatch, so
    # the loop's final time is the makespan.
    return _fill_result(result, now, messages)
