"""Fast-path arrow engine: ``run_arrow`` semantics without the message layer.

:class:`FastArrowEngine` executes open-loop arrow runs on a precomputed
tree adjacency with a flat binary heap over ``(time, seq)`` tuples and
plain int/float array node state (``link``, ``last_rid``) — no
:class:`~repro.net.message.Message` objects, no per-event
:class:`~repro.sim.events.Event` dataclasses, no
:class:`~repro.net.network.Network` dispatch.  The produced
:class:`~repro.core.queueing.RunResult` is bit-identical to
:func:`repro.core.runner.run_arrow` (same completions, predecessors, hop
counts, makespan and tie-breaking), which the differential suite in
``tests/core/test_fast_arrow_differential.py`` enforces instance by
instance.

Why bit-identical is achievable
-------------------------------
The message-level kernel orders events by ``(time, priority, seq)`` with a
single global sequence counter and every event in an arrow run using the
default priority, so the total order reduces to ``(time, seq)``.  The fast
engine schedules the *same* events in the *same* order — initiations in
canonical rid order, then one arrival per link traversal (plus one
dispatch per arrival when ``service_time > 0``) — so its own sequence
counter reproduces the kernel's tie-breaking exactly.  FIFO clamping per
directed tree link and the per-node busy-until service model are replayed
arithmetically, and stochastic latency models draw from the same
``spawn_rng(seed, "network-latency")`` stream in the same order as
:class:`~repro.net.network.Network` would.
"""

from __future__ import annotations

import time as _wall
from heapq import heappop, heappush

from repro.core.queueing import CompletionRecord, RunResult
from repro.core.requests import NO_RID, ROOT_RID, RequestSchedule
from repro.errors import NetworkError, ProtocolError, SimulationError
from repro.graphs.graph import Graph
from repro.graphs.validation import require_spanning_subgraph
from repro.net.latency import LatencyModel, UnitLatency
from repro.sim.rng import spawn_rng
from repro.spanning.tree import SpanningTree

__all__ = [
    "ENGINES",
    "FastArrowEngine",
    "arrow_runner",
    "engine_error_message",
    "run_arrow_fast",
]


#: Every arrow engine name, defined once: the sweep spec's ``engine``
#: check, the runner resolvers, the fault entry point and the CLI's
#: ``--engine`` choices all derive from this tuple.
ENGINES = ("fast", "message")


def engine_error_message(engine: object) -> str:
    """The one "engine must be ..." text every validation point raises with."""
    names = " or ".join(repr(name) for name in ENGINES)
    return f"engine must be {names}, got {engine!r}"


def arrow_runner(engine: str):
    """Resolve an engine name to its run function.

    The single validation point for open-loop ``engine`` names (one of
    :data:`ENGINES`) — unknown names raise instead of silently falling
    back to one of the engines.
    """
    if engine == "fast":
        return run_arrow_fast
    if engine == "message":
        from repro.core.runner import run_arrow

        return run_arrow
    raise ValueError(engine_error_message(engine))


def _raise_livelock(max_events: int | None) -> None:
    raise SimulationError(
        f"exceeded max_events={max_events}; possible livelock in protocol code"
    )


def _tree_link_weights(graph: Graph, parent: list[int], root: int) -> list[float]:
    """Per-link weights as the Network sees them.

    Graph weights on the tree edges (``tree.edge_weight`` may legitimately
    differ).
    """
    weight = [0.0] * len(parent)
    for v in range(len(parent)):
        if v != root:
            weight[v] = graph.weight(v, parent[v])
    return weight


def _det_link_delays(
    model: LatencyModel,
    parent: list[int],
    weight: list[float],
    root: int,
    rng,
) -> tuple[list[float] | None, list[float] | None]:
    """Per-directed-tree-link delays of a deterministic latency model.

    Deterministic models may legally depend on the (src, dst) direction,
    so one delay per directed link: up[v] = v -> parent[v], down[v] =
    parent[v] -> v.  ``(None, None)`` for stochastic models, which must
    draw per send.
    """
    if model.stochastic:
        return None, None
    sample = model.sample
    n = len(parent)
    det_up = [
        sample(v, parent[v], weight[v], rng) if v != root else 0.0
        for v in range(n)
    ]
    det_down = [
        sample(parent[v], v, weight[v], rng) if v != root else 0.0
        for v in range(n)
    ]
    return det_up, det_down


# Event type tags inside the general loop's heap tuples.
_ARRIVE = 1
_DISPATCH = 2


class FastArrowEngine:
    """Reusable fast executor for arrow runs on one ``(graph, tree)`` pair.

    Precomputes the tree adjacency (parent pointers), the per-link delays
    of deterministic latency models and the initial pointer configuration;
    :meth:`run` then replays a schedule with per-run mutable state only.

    Parameters mirror the :func:`~repro.core.runner.run_arrow` knobs it
    supports; features that are inherently message-level (``notify_origin``
    acknowledgement traffic, tracing) are not available here — use the
    message simulator for those.
    """

    def __init__(
        self,
        graph: Graph,
        tree: SpanningTree,
        *,
        latency: LatencyModel | None = None,
        seed: int = 0,
        service_time: float = 0.0,
    ) -> None:
        if service_time < 0:
            raise NetworkError(f"service_time must be >= 0, got {service_time}")
        require_spanning_subgraph(graph, [(u, v) for u, v, _ in tree.edges()])
        self.graph = graph
        self.tree = tree
        self.latency = latency if latency is not None else UnitLatency()
        self.seed = seed
        self.service_time = float(service_time)

        n = tree.num_nodes
        self._n = n
        self._root = tree.root
        self._parent = list(tree.parent)
        self._weight = _tree_link_weights(graph, self._parent, self._root)
        self._det_up, self._det_down = _det_link_delays(
            self.latency,
            self._parent,
            self._weight,
            self._root,
            spawn_rng(seed, "network-latency"),
        )

    # ------------------------------------------------------------------
    def run(
        self,
        schedule: RequestSchedule,
        *,
        max_events: int | None = None,
        on_event=None,
    ) -> RunResult:
        """Execute one schedule; returns a ``run_arrow``-identical result.

        ``on_event``, when set, receives the protocol trace in the same
        order the message engine emits it (see :mod:`repro.monitors`);
        ``None`` (the default) keeps the hot loops emission-free.
        """
        schedule.validate_nodes(self._n)
        result = RunResult(schedule)

        n = self._n
        root = self._root

        # Protocol state (ArrowNode.init_pointers, flattened).
        link = self._parent[:]
        link[root] = root
        last_rid = [NO_RID] * n
        last_rid[root] = ROOT_RID

        # FIFO clamp per directed tree link: 2v = v -> parent[v],
        # 2v + 1 = parent[v] -> v (FifoChannel._last_delivery, flattened).
        last_delivery = [0.0] * (2 * n)

        # Initiation events stay out of the heap: the schedule is already
        # in canonical (time, rid) order, which is exactly the kernel's
        # (time, seq) order for them, and every in-flight message event
        # carries a larger sequence number than every initiation (the
        # runner schedules all initiations before the first send), so on
        # a time tie the initiation always fires first.
        init_times = schedule.times
        init_nodes = schedule.nodes

        # Raw completion rows (rid, pred, node, time, hops); the record
        # dataclasses are built once, after the hot loop.
        done: list[tuple[int, int, int, float, int]] = []

        t0 = _wall.perf_counter()
        if self.service_time == 0.0:
            now, fired, messages = self._drain(
                init_times, init_nodes, link, last_rid, last_delivery,
                done, max_events, on_event,
            )
        else:
            now, fired, messages = self._drain_with_service(
                init_times, init_nodes, link, last_rid, last_delivery,
                done, max_events, on_event,
            )
        wall = _wall.perf_counter() - t0

        completions = result.completions
        for row in done:
            completions[row[0]] = CompletionRecord(*row)
        if len(completions) != len(done):
            raise ProtocolError("a request completed twice")
        result.makespan = now if fired else 0.0
        result.wall_seconds = wall
        result.network_stats = {
            "messages_sent": messages,
            "link_messages": messages,
            "routed_messages": 0,
            "hops_total": messages,
        }
        if len(completions) != len(schedule):
            raise ProtocolError(
                f"arrow run completed {len(completions)} of "
                f"{len(schedule)} requests"
            )
        return result

    # ------------------------------------------------------------------
    def _drain(
        self,
        init_times: list[float],
        init_nodes: list[int],
        link: list[int],
        last_rid: list[int],
        last_delivery: list[float],
        done: list[tuple[int, int, int, float, int]],
        max_events: int | None,
        emit=None,
    ) -> tuple[float, int, int]:
        """Hot loop for ``service_time == 0`` (the §3.1 analysis model)."""
        parent = self._parent
        weight = self._weight
        det_up = self._det_up
        det_down = self._det_down
        sample = self.latency.sample
        rng = spawn_rng(self.seed, "network-latency") if det_up is None else None
        append = done.append
        push, pop = heappush, heappop

        # In-flight message events: (time, seq, dst, src, rid, hops).
        limit = float("inf") if max_events is None else max_events
        heap: list[tuple[float, int, int, int, int, int]] = []
        m = len(init_times)
        seq = m  # kernel parity: initiations consumed seqs 0..m-1
        i = 0
        fired = 0
        messages = 0
        now = 0.0

        while True:
            if i < m and (not heap or init_times[i] <= heap[0][0]):
                # Initiation of request i (ArrowNode.initiate).
                now = init_times[i]
                v = init_nodes[i]
                rid = i
                i += 1
                fired += 1
                if fired > limit:
                    _raise_livelock(max_events)
                if emit is not None:
                    emit("init", rid, v, now)
                x = link[v]
                if x == v:
                    # Local find: queued behind v's previous request.
                    if emit is not None:
                        emit("complete", rid, last_rid[v], v, now, 0)
                    append((rid, last_rid[v], v, now, 0))
                    last_rid[v] = rid
                    continue
                last_rid[v] = rid
                link[v] = v
                dst = x
                hops = 1
            elif heap:
                now, _, v, src, rid, hops = pop(heap)
                fired += 1
                if fired > limit:
                    _raise_livelock(max_events)
                # Path reversal (ArrowNode.on_message).
                if emit is not None:
                    emit("deliver", rid, v, src, now)
                x = link[v]
                link[v] = src
                if x == v:
                    if emit is not None:
                        emit("complete", rid, last_rid[v], v, now, hops)
                    append((rid, last_rid[v], v, now, hops))
                    continue
                dst = x
                hops += 1
            else:
                break

            # One link traversal v -> dst (send_link / forward + FifoChannel).
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
            push(heap, (at, seq, dst, v, rid, hops))
            seq += 1
            messages += 1
        return now, fired, messages

    # ------------------------------------------------------------------
    def _drain_with_service(
        self,
        init_times: list[float],
        init_nodes: list[int],
        link: list[int],
        last_rid: list[int],
        last_delivery: list[float],
        done: list[tuple[int, int, int, float, int]],
        max_events: int | None,
        emit=None,
    ) -> tuple[float, int, int]:
        """General loop with per-node sequential service (Fig. 10 model)."""
        parent = self._parent
        weight = self._weight
        det_up = self._det_up
        det_down = self._det_down
        sample = self.latency.sample
        service = self.service_time
        rng = spawn_rng(self.seed, "network-latency") if det_up is None else None
        busy_until = [0.0] * self._n  # Network._busy_until
        append = done.append

        # (time, seq, tag, node, src, rid, hops) with explicit event tags:
        # arrivals go through the service stage, dispatches do the work.
        limit = float("inf") if max_events is None else max_events
        heap: list[tuple[float, int, int, int, int, int, int]] = []
        m = len(init_times)
        seq = m
        i = 0
        fired = 0
        messages = 0
        now = 0.0

        while True:
            if i < m and (not heap or init_times[i] <= heap[0][0]):
                now = init_times[i]
                v = init_nodes[i]
                rid = i
                i += 1
                fired += 1
                if fired > limit:
                    _raise_livelock(max_events)
                if emit is not None:
                    emit("init", rid, v, now)
                x = link[v]
                if x == v:
                    if emit is not None:
                        emit("complete", rid, last_rid[v], v, now, 0)
                    append((rid, last_rid[v], v, now, 0))
                    last_rid[v] = rid
                    continue
                last_rid[v] = rid
                link[v] = v
                dst = x
                hops = 1
            elif heap:
                now, _, tag, v, src, rid, hops = heappop(heap)
                fired += 1
                if fired > limit:
                    _raise_livelock(max_events)
                if tag == _ARRIVE:
                    # Serialise handling at v (Network._arrive): the
                    # path-reversal step runs as its own dispatch event.
                    begin = busy_until[v]
                    if now > begin:
                        begin = now
                    finish = begin + service
                    busy_until[v] = finish
                    heappush(heap, (finish, seq, _DISPATCH, v, src, rid, hops))
                    seq += 1
                    continue
                if emit is not None:
                    emit("deliver", rid, v, src, now)
                x = link[v]
                link[v] = src
                if x == v:
                    if emit is not None:
                        emit("complete", rid, last_rid[v], v, now, hops)
                    append((rid, last_rid[v], v, now, hops))
                    continue
                dst = x
                hops += 1
            else:
                break

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
            heappush(heap, (at, seq, _ARRIVE, dst, v, rid, hops))
            seq += 1
            messages += 1
        return now, fired, messages


def run_arrow_fast(
    graph: Graph,
    tree: SpanningTree,
    schedule: RequestSchedule,
    *,
    latency: LatencyModel | None = None,
    seed: int = 0,
    service_time: float = 0.0,
    max_events: int | None = None,
    on_event=None,
) -> RunResult:
    """Drop-in fast replacement for the supported ``run_arrow`` subset.

    Accepts the same model knobs as :func:`repro.core.runner.run_arrow`
    except ``notify_origin`` and ``tracer`` (message-level features); the
    returned result is bit-identical to the message simulator's.
    """
    engine = FastArrowEngine(
        graph, tree, latency=latency, seed=seed, service_time=service_time
    )
    return engine.run(schedule, max_events=max_events, on_event=on_event)
