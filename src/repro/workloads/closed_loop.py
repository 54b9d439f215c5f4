"""Closed-loop workload driver (the Section 5 measurement loop).

"Each processor issued the next queuing request immediately after it
learnt about the completion of its previous request."  This module drives
the arrow and centralized protocols with exactly that discipline: every
processor has a budget of requests; a new one is issued ``think_time``
after the acknowledgement of the previous one arrives.

Unlike the open-loop runners, the schedule is *generated by the dynamics*,
so results are reported through :class:`ClosedLoopResult` (makespan,
per-request hops, message totals) rather than a pre-built
:class:`RequestSchedule`.

Modelling notes:

* acknowledgements are application messages routed over ``G``
  (``queue_reply``); the paper's SP2 network is a complete unit-latency
  graph, so they are single messages, exactly the "returned to the
  processor" step of §5;
* ``service_time`` adds per-node sequential message handling.  The
  centralized protocol's centre handles every request in the system, so a
  positive service time makes its completion time grow linearly with the
  processor count — the Fig. 10 separation;
* ``think_time`` models the requester's local processing between
  operations; it bounds the per-processor issue rate the way real CPU
  work does on the SP2.

Parity contract
---------------
:mod:`repro.core.fast_closed_loop` reimplements both drivers on a flat
heap without message objects; its results are **bit-identical** to the
ones produced here — every field of :class:`ClosedLoopResult`
(makespan, completions, per-request hops/latencies/issue/ack times,
message totals), the same tie-breaking, the same RNG draws.  The
small-model oracle (``tests/small_models.py``) checks the contract on
every small closed loop it enumerates, so any semantic change to this
module must be mirrored there.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.arrow import ArrowNode, CompletionCallback
from repro.core.centralized import CentralizedNode
from repro.core.event_stream import emitting_to
from repro.core.fast_closed_loop import (
    ClosedLoopResult,
    _check_complete,
    _check_loop_args,
    check_center,
)
from repro.errors import ProtocolError
from repro.graphs.graph import Graph
from repro.net.latency import LatencyModel
from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import ProtocolNode
from repro.sim.kernel import Simulator
from repro.spanning.tree import SpanningTree

__all__ = ["closed_loop_arrow", "closed_loop_centralized"]


class _Driver:
    """Shared per-processor issuing logic."""

    def __init__(
        self,
        sim: Simulator,
        result: ClosedLoopResult,
        think_time: float,
    ) -> None:
        self.sim = sim
        self.result = result
        self.think_time = think_time
        self.remaining = [result.requests_per_proc] * result.num_procs
        self.next_rid = 0
        result.ack_times = [-1.0] * result.total_requests

    def issue(self, proc: int, initiate) -> None:
        if self.remaining[proc] <= 0:
            return
        self.remaining[proc] -= 1
        rid = self.next_rid
        self.next_rid += 1
        self.result.owners.append(proc)
        self.result.issue_times.append(self.sim.now)
        initiate(rid)

    def on_ack(self, proc: int, rid: int, initiate) -> None:
        self.result.ack_times[rid] = self.sim.now
        self.result.makespan = self.sim.now
        if self.remaining[proc] > 0:
            if self.think_time > 0:
                self.sim.call_in(self.think_time, self.issue, proc, initiate)
            else:
                self.issue(proc, initiate)


def _run_closed_loop(
    protocol: str,
    graph: Graph,
    make_node: Callable[[CompletionCallback], ProtocolNode],
    init: Callable[[Sequence], None],
    *,
    requests_per_proc: int,
    latency: LatencyModel | None,
    seed: int,
    service_time: float,
    think_time: float,
    max_events: int | None,
) -> ClosedLoopResult:
    """The message-level closed loop, written once.

    ``make_node(on_complete)`` builds one protocol node that acknowledges
    its requester with ``queue_reply``; ``init(nodes)`` runs after
    registration (initial pointers, the centre's tail record).  The
    driver, the ack handlers, the t = 0 kick-off, the timed run and the
    completeness check are the same for both protocols.  (The open-loop
    arrow run, and why the faulted driver keeps its own prologue, is
    :func:`repro.core.runner.run_arrow`.)
    """
    _check_loop_args(requests_per_proc, service_time, think_time)
    n = graph.num_nodes
    result = ClosedLoopResult(protocol, n, requests_per_proc)
    sim = Simulator(max_events=max_events)
    net = Network(graph, sim, latency, seed=seed, service_time=service_time)
    driver = _Driver(sim, result, think_time)

    def on_complete(rid: int, pred: int, node: int, when: float, hops: int) -> None:
        result.completions += 1
        result.hops.append(hops)
        result.latencies.append(when - result.issue_times[rid])
        if hops == 0:
            result.local_finds += 1

    nodes = [make_node(on_complete) for _ in range(n)]
    net.register_all(nodes)
    init(nodes)

    def make_ack_handler(proc: int):
        def handler(msg: Message) -> None:
            if msg.kind != "queue_reply":
                raise ProtocolError(f"unexpected app message {msg.kind!r}")
            driver.on_ack(proc, msg.payload["rid"], nodes[proc].initiate)

        return handler

    for p in range(n):
        nodes[p].app_handler = make_ack_handler(p)
    # Kick off: every processor issues its first request at t = 0.
    for p in range(n):
        sim.call_at(0.0, driver.issue, p, nodes[p].initiate)

    sim.run()
    result.messages_sent = net.stats.messages_sent
    _check_complete(result)
    return result


def closed_loop_arrow(
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
    """Closed-loop arrow run; returns makespan and per-request hops.

    ``on_event``, when set, is called with the queuing-layer protocol
    trace as a list of event tuples (:mod:`repro.core.event_stream`; the
    vocabulary is in :mod:`repro.monitors`), once, when the run ends or
    aborts; the ``queue_reply`` acknowledgements are application traffic
    and not part of it.
    """
    with emitting_to(on_event) as emit:

        def init(nodes: Sequence[ArrowNode]) -> None:
            for nd in nodes:
                nd.init_pointers(tree)
                nd.emit = emit

        return _run_closed_loop(
            "arrow",
            graph,
            lambda on_complete: ArrowNode(on_complete, notify_origin=True),
            init,
            requests_per_proc=requests_per_proc,
            latency=latency,
            seed=seed,
            service_time=service_time,
            think_time=think_time,
            max_events=max_events,
        )


def closed_loop_centralized(
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
    """Closed-loop centralized run with the paper's 2-message discipline."""
    check_center(center, graph.num_nodes)
    return _run_closed_loop(
        "centralized",
        graph,
        lambda on_complete: CentralizedNode(center, on_complete),
        lambda nodes: nodes[center].init_center(),
        requests_per_proc=requests_per_proc,
        latency=latency,
        seed=seed,
        service_time=service_time,
        think_time=think_time,
        max_events=max_events,
    )
