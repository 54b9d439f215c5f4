"""Fast closed-loop engine: the §5 measurement loop without the message layer.

:func:`closed_loop_arrow_fast` and :func:`closed_loop_centralized_fast`
replay the full closed-loop dynamics of :mod:`repro.workloads.closed_loop`
— per-processor request budgets, ``think_time`` between operations,
per-node sequential ``service_time``, and the routed ``queue_reply``
acknowledgements over ``G`` — on a flat binary heap over ``(time, seq)``
tuples with plain array node state.  No :class:`~repro.net.message.Message`
objects, no per-event :class:`~repro.sim.events.Event` dataclasses, no
:class:`~repro.net.network.Network` dispatch.

The produced :class:`~repro.workloads.closed_loop.ClosedLoopResult` is
**bit-identical** to the message-level drivers' (same makespan, per-request
hops and latencies, issue/ack times, message totals, tie-breaking and RNG
draws), which ``tests/core/test_fast_closed_loop_parity.py`` enforces
instance by instance.

Why bit-identical is achievable
-------------------------------
The message-level kernel orders events by ``(time, priority, seq)`` with a
single global sequence counter, and every event of a closed-loop run uses
the default priority, so the total order reduces to ``(time, seq)``.  The
fast engine schedules the *same* events in the *same* order:

* the driver's n initial ``issue`` events at t = 0 (seqs 0..n-1), then one
  event per message delivery (plus one dispatch per delivery when
  ``service_time > 0``) and one event per think-time re-issue, each
  consuming the next sequence number at the moment the message simulator
  would have scheduled it;
* with ``think_time == 0`` the re-issue runs *inside* the acknowledgement
  dispatch (no event of its own), exactly like ``_Driver.on_ack``;
* FIFO clamping per directed tree link, the per-node busy-until service
  model, and the acknowledgements' shortest-path routing (same Dijkstra
  predecessor array as :meth:`Network._route`) are replayed
  arithmetically; stochastic latency models draw from the same
  ``spawn_rng(seed, "network-latency")`` stream in the same order —
  one draw per tree-link traversal, one draw per edge of a routed path.
"""

from __future__ import annotations

import time as _wall
from heapq import heappop, heappush

from repro.core.fast_arrow import (
    _det_link_delays,
    _raise_livelock,
    _tree_link_weights,
    engine_error_message,
)
from repro.core.requests import NO_RID, ROOT_RID
from repro.errors import NetworkError
from repro.graphs.graph import Graph
from repro.graphs.shortest_paths import dijkstra
from repro.graphs.validation import require_spanning_subgraph
from repro.net.latency import LatencyModel, UnitLatency
from repro.sim.rng import spawn_rng
from repro.spanning.tree import SpanningTree
from repro.workloads.closed_loop import ClosedLoopResult, _check_complete

__all__ = [
    "closed_loop_arrow_fast",
    "closed_loop_centralized_fast",
    "closed_loop_runner",
]


def closed_loop_runner(protocol: str, engine: str):
    """Resolve ``(protocol, engine)`` to a closed-loop run function.

    The single validation point for closed-loop ``engine`` names (one of
    :data:`repro.core.fast_arrow.ENGINES`) — unknown names raise instead
    of silently falling back.
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


# Event type tags inside the heap tuples.  Every tuple is
# (time, seq, tag, node, src, rid, hops); seq is globally unique so the
# heap order never compares past it — exactly the kernel's tie-breaking.
_ISSUE = 0  # driver.issue at a processor
_QARRIVE = 1  # queue / creq message reaches a node (Network._arrive)
_QDISPATCH = 2  # its handler runs after the service delay
_RARRIVE = 3  # queue_reply acknowledgement reaches its origin
_RDISPATCH = 4  # its handler (driver.on_ack) runs after the service delay


def _driver_state(n: int, requests_per_proc: int):
    """Fresh per-run driver arrays + the seeded event heap.

    The kernel schedules the n initial issue events before anything else,
    so they own sequence numbers 0..n-1; ``remaining`` is the per-processor
    budget and the four trailing lists are the result's per-request fields
    (``ack_times`` is rid-indexed, hence preallocated).
    """
    heap: list[tuple[float, int, int, int, int, int, int]] = [
        (0.0, p, _ISSUE, p, -1, -1, 0) for p in range(n)
    ]
    remaining = [requests_per_proc] * n
    issue_times: list[float] = []
    owners: list[int] = []
    ack_times = [-1.0] * (n * requests_per_proc)
    hops_list: list[int] = []
    latencies: list[float] = []
    return heap, remaining, issue_times, owners, ack_times, hops_list, latencies


def _fill_result(
    result: ClosedLoopResult,
    *,
    makespan: float,
    completions: int,
    hops: list[int],
    local_finds: int,
    messages: int,
    issue_times: list[float],
    ack_times: list[float],
    owners: list[int],
    latencies: list[float],
    wall: float,
) -> ClosedLoopResult:
    """Assemble and sanity-check the result (shared run epilogue)."""
    result.makespan = makespan
    result.completions = completions
    result.hops = hops
    result.local_finds = local_finds
    result.messages_sent = messages
    result.issue_times = issue_times
    result.ack_times = ack_times
    result.owners = owners
    result.latencies = latencies
    result.wall_seconds = wall
    _check_complete(result)
    return result


class _Router:
    """Shortest-path routing over ``G``, mirroring :meth:`Network._route`.

    Caches the Dijkstra predecessor array per source and the reconstructed
    path per ``(src, dst)`` pair.  For deterministic latency models the
    summed path delay is cached outright; stochastic models re-sample every
    edge per send, in path order, exactly as ``send_routed`` does.
    """

    __slots__ = ("graph", "latency", "rng", "_sssp", "_paths", "_det")

    def __init__(self, graph: Graph, latency: LatencyModel, rng) -> None:
        self.graph = graph
        self.latency = latency
        self.rng = rng
        self._sssp: dict[int, list[int]] = {}
        self._paths: dict[tuple[int, int], tuple[list[int], list[int], list[float]]] = {}
        self._det: dict[tuple[int, int], tuple[float, int]] = {}

    def _path_edges(
        self, src: int, dst: int
    ) -> tuple[list[int], list[int], list[float]]:
        key = (src, dst)
        cached = self._paths.get(key)
        if cached is not None:
            return cached
        pred = self._sssp.get(src)
        if pred is None:
            _, pred = dijkstra(self.graph, src)
            self._sssp[src] = pred
        path = [dst]
        while path[-1] != src:
            nxt = pred[path[-1]]
            if nxt < 0:
                raise NetworkError(f"node {dst} unreachable from {src}")
            path.append(nxt)
        path.reverse()
        srcs = path[:-1]
        dsts = path[1:]
        weights = [self.graph.weight(a, b) for a, b in zip(srcs, dsts)]
        edges = (srcs, dsts, weights)
        self._paths[key] = edges
        return edges

    def delay_hops(self, src: int, dst: int) -> tuple[float, int]:
        """Summed per-edge delay and hop count of one routed send."""
        if not self.latency.stochastic:
            cached = self._det.get((src, dst))
            if cached is not None:
                return cached
        srcs, dsts, weights = self._path_edges(src, dst)
        sample = self.latency.sample
        rng = self.rng
        delay = 0.0
        for a, b, w in zip(srcs, dsts, weights):
            delay += sample(a, b, w, rng)
        out = (delay, len(srcs))
        if not self.latency.stochastic:
            self._det[(src, dst)] = out
        return out


# ----------------------------------------------------------------------
# the closed-loop event loops
# ----------------------------------------------------------------------
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

    ``on_event``, when set, receives the queuing-layer protocol trace
    (see :mod:`repro.monitors`); acknowledgement traffic is application
    level and not part of it.
    """
    if service_time < 0:
        raise NetworkError(f"service_time must be >= 0, got {service_time}")
    require_spanning_subgraph(graph, [(u, v) for u, v, _ in tree.edges()])
    n = graph.num_nodes
    result = ClosedLoopResult("arrow", n, requests_per_proc)
    model = latency if latency is not None else UnitLatency()
    rng = spawn_rng(seed, "network-latency")
    service = float(service_time)
    think = float(think_time)

    root = tree.root
    parent = list(tree.parent)
    weight = _tree_link_weights(graph, parent, root)
    # Per-directed-link delay tables for deterministic latency models;
    # ``None`` for stochastic ones, which draw from ``rng`` per send.
    det_up, det_down = _det_link_delays(model, parent, weight, root, rng)
    sample = model.sample
    router = _Router(graph, model, rng)

    # Protocol state (ArrowNode.init_pointers, flattened).
    link = parent[:]
    link[root] = root
    last_rid = [NO_RID] * n
    last_rid[root] = ROOT_RID

    # FIFO clamp per directed tree link: 2v = v -> parent[v],
    # 2v + 1 = parent[v] -> v (FifoChannel._last_delivery, flattened).
    last_delivery = [0.0] * (2 * n)
    busy_until = [0.0] * n  # Network._busy_until

    (
        heap,
        remaining,
        issue_times,
        owners,
        ack_times,
        hops_list,
        latencies,
    ) = _driver_state(n, requests_per_proc)
    seq = n
    next_rid = 0
    messages = 0
    completions = 0
    local_finds = 0
    makespan = 0.0
    fired = 0
    limit = float("inf") if max_events is None else max_events

    emit = on_event

    def send_queue(v: int, dst: int, rid: int, hops: int, now: float) -> None:
        # One tree-link traversal (send_link / forward + FifoChannel).
        nonlocal seq, messages
        if emit is not None:
            emit("send", rid, v, dst, now)
        down = parent[dst] == v
        if det_up is None:
            delay = sample(v, dst, weight[dst if down else v], rng)
        else:
            delay = det_down[dst] if down else det_up[v]
        chan = 2 * dst + 1 if down else 2 * v
        at = now + delay
        if at < last_delivery[chan]:
            at = last_delivery[chan]
        last_delivery[chan] = at
        heappush(heap, (at, seq, _QARRIVE, dst, v, rid, hops))
        seq += 1
        messages += 1

    def send_reply(src: int, origin: int, rid: int, now: float) -> None:
        # Routed queue_reply over G (send_routed); a self-reply delivers
        # after zero delay as its own event, with no latency samples.
        nonlocal seq, messages
        messages += 1
        if src == origin:
            at = now
        else:
            delay, _ = router.delay_hops(src, origin)
            at = now + delay
        heappush(heap, (at, seq, _RARRIVE, origin, -1, rid, 0))
        seq += 1

    def issue(p: int, now: float) -> None:
        # _Driver.issue + ArrowNode.initiate, flattened.
        nonlocal next_rid, completions, local_finds
        if remaining[p] <= 0:
            return
        remaining[p] -= 1
        rid = next_rid
        next_rid += 1
        owners.append(p)
        issue_times.append(now)
        if emit is not None:
            emit("init", rid, p, now)
        x = link[p]
        if x == p:
            # Local find: queued behind p's previous request, zero messages.
            if emit is not None:
                emit("complete", rid, last_rid[p], p, now, 0)
            last_rid[p] = rid
            completions += 1
            local_finds += 1
            hops_list.append(0)
            latencies.append(0.0)
            send_reply(p, p, rid, now)
            return
        last_rid[p] = rid
        link[p] = p
        send_queue(p, x, rid, 1, now)

    t0 = _wall.perf_counter()
    while heap:
        now, _, tag, v, src, rid, hops = heappop(heap)
        fired += 1
        if fired > limit:
            _raise_livelock(max_events)
        if tag == _QARRIVE and service > 0.0:
            # Serialise handling at v (Network._arrive): the path-reversal
            # step runs as its own dispatch event after the service delay.
            begin = busy_until[v]
            if now > begin:
                begin = now
            finish = begin + service
            busy_until[v] = finish
            heappush(heap, (finish, seq, _QDISPATCH, v, src, rid, hops))
            seq += 1
        elif tag == _QARRIVE or tag == _QDISPATCH:
            # Path reversal (ArrowNode.on_message).
            if emit is not None:
                emit("deliver", rid, v, src, now)
            x = link[v]
            link[v] = src
            if x != v:
                send_queue(v, x, rid, hops + 1, now)
            else:
                # v is the sink: rid queued behind v's last request.
                if emit is not None:
                    emit("complete", rid, last_rid[v], v, now, hops)
                completions += 1
                hops_list.append(hops)
                latencies.append(now - issue_times[rid])
                send_reply(v, owners[rid], rid, now)
        elif tag == _RARRIVE and service > 0.0:
            begin = busy_until[v]
            if now > begin:
                begin = now
            finish = begin + service
            busy_until[v] = finish
            heappush(heap, (finish, seq, _RDISPATCH, v, -1, rid, 0))
            seq += 1
        elif tag == _RARRIVE or tag == _RDISPATCH:
            # _Driver.on_ack: record, then re-issue after the think time.
            ack_times[rid] = now
            makespan = now
            if remaining[v] > 0:
                if think > 0:
                    heappush(heap, (now + think, seq, _ISSUE, v, -1, -1, 0))
                    seq += 1
                else:
                    issue(v, now)
        else:  # _ISSUE
            issue(v, now)
    wall = _wall.perf_counter() - t0

    return _fill_result(
        result,
        makespan=makespan,
        completions=completions,
        hops=hops_list,
        local_finds=local_finds,
        messages=messages,
        issue_times=issue_times,
        ack_times=ack_times,
        owners=owners,
        latencies=latencies,
        wall=wall,
    )


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
    if service_time < 0:
        raise NetworkError(f"service_time must be >= 0, got {service_time}")
    n = graph.num_nodes
    if not 0 <= center < n:
        raise NetworkError(f"center {center} out of range for {n} nodes")
    result = ClosedLoopResult("centralized", n, requests_per_proc)
    model = latency if latency is not None else UnitLatency()
    router = _Router(graph, model, spawn_rng(seed, "network-latency"))
    service = float(service_time)
    think = float(think_time)

    busy_until = [0.0] * n
    (
        heap,
        remaining,
        issue_times,
        owners,
        ack_times,
        hops_list,
        latencies,
    ) = _driver_state(n, requests_per_proc)
    seq = n
    next_rid = 0
    messages = 0
    completions = 0
    local_finds = 0
    makespan = 0.0
    fired = 0
    limit = float("inf") if max_events is None else max_events

    def enqueue_at_center(rid: int, origin: int, hops: int, now: float) -> None:
        # The §5 two-message discipline (CentralizedNode._enqueue_at_center
        # in reply_mode): record the completion at the centre, then
        # acknowledge the requester with one routed queue_reply.
        nonlocal seq, messages, completions, local_finds
        completions += 1
        hops_list.append(hops)
        latencies.append(now - issue_times[rid])
        if hops == 0:
            local_finds += 1
        messages += 1
        if origin == center:
            at = now
        else:
            delay, _ = router.delay_hops(center, origin)
            at = now + delay
        heappush(heap, (at, seq, _RARRIVE, origin, -1, rid, 0))
        seq += 1

    def issue(p: int, now: float) -> None:
        nonlocal seq, next_rid, messages
        if remaining[p] <= 0:
            return
        remaining[p] -= 1
        rid = next_rid
        next_rid += 1
        owners.append(p)
        issue_times.append(now)
        if p == center:
            # The centre skips the first leg and enqueues locally.
            enqueue_at_center(rid, p, 0, now)
            return
        # One routed creq to the centre.
        messages += 1
        delay, hops = router.delay_hops(p, center)
        heappush(heap, (now + delay, seq, _QARRIVE, center, p, rid, hops))
        seq += 1

    t0 = _wall.perf_counter()
    while heap:
        now, _, tag, v, src, rid, hops = heappop(heap)
        fired += 1
        if fired > limit:
            _raise_livelock(max_events)
        if tag == _QARRIVE and service > 0.0:
            # creq arrivals serialise at the centre — the Fig. 10 bottleneck.
            begin = busy_until[v]
            if now > begin:
                begin = now
            finish = begin + service
            busy_until[v] = finish
            heappush(heap, (finish, seq, _QDISPATCH, v, src, rid, hops))
            seq += 1
        elif tag == _QARRIVE or tag == _QDISPATCH:
            enqueue_at_center(rid, src, hops, now)
        elif tag == _RARRIVE and service > 0.0:
            begin = busy_until[v]
            if now > begin:
                begin = now
            finish = begin + service
            busy_until[v] = finish
            heappush(heap, (finish, seq, _RDISPATCH, v, -1, rid, 0))
            seq += 1
        elif tag == _RARRIVE or tag == _RDISPATCH:
            ack_times[rid] = now
            makespan = now
            if remaining[v] > 0:
                if think > 0:
                    heappush(heap, (now + think, seq, _ISSUE, v, -1, -1, 0))
                    seq += 1
                else:
                    issue(v, now)
        else:  # _ISSUE
            issue(v, now)
    wall = _wall.perf_counter() - t0

    return _fill_result(
        result,
        makespan=makespan,
        completions=completions,
        hops=hops_list,
        local_finds=local_finds,
        messages=messages,
        issue_times=issue_times,
        ack_times=ack_times,
        owners=owners,
        latencies=latencies,
        wall=wall,
    )
