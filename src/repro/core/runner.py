"""Protocol runners: execute a request schedule and collect results.

One harness, :func:`_run_open_loop`, builds the network, installs protocol
nodes, schedules every request's initiation at its issue time, runs the
simulation to completion and returns a
:class:`repro.core.queueing.RunResult`; :func:`run_arrow`,
:func:`run_centralized` and :func:`repro.core.adaptive.run_adaptive` are
configurations of it (which node class, how it is initialised).  A run is
watched through its ``on_event`` sink (:mod:`repro.core.event_stream`) and
counted by :class:`repro.net.network.NetworkStats`; there is no other
observation channel.

``run_arrow`` is the message-level ground truth for everything in this
repository; the analysis layer's fast nearest-neighbour executor
(:mod:`repro.analysis.nearest_neighbor`) must agree with it on tie-free
instances — an invariant the integration tests enforce.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.arrow import ArrowNode, CompletionCallback
from repro.core.centralized import CentralizedNode, check_center
from repro.core.event_stream import emitting_to
from repro.core.queueing import RunResult
from repro.core.requests import RequestSchedule
from repro.errors import ProtocolError
from repro.graphs.graph import Graph
from repro.graphs.validation import require_spanning_subgraph
from repro.net.latency import LatencyModel
from repro.net.network import Network
from repro.net.node import ProtocolNode
from repro.sim.kernel import Simulator
from repro.spanning.tree import SpanningTree

__all__ = ["run_arrow", "run_centralized"]


def _run_open_loop(
    protocol: str,
    graph: Graph,
    schedule: RequestSchedule,
    make_node: Callable[[CompletionCallback], ProtocolNode],
    init: Callable[[Sequence], None],
    *,
    latency: LatencyModel | None,
    seed: int,
    service_time: float,
    max_events: int | None,
) -> RunResult:
    """The message-level open-loop run, written once.

    ``make_node(on_complete)`` builds one protocol node (called
    ``graph.num_nodes`` times); ``init(nodes)`` runs after the nodes are
    registered and know their ids (initial pointers, the centre's tail
    record, the nodes' ``emit``).  Everything else — schedule check,
    kernel, network, completion recording, one initiation event per
    request in schedule order, the timed run, counters and the
    every-request-completed check — is the same for every protocol.

    The closed loops share :func:`repro.workloads.closed_loop._run_closed_loop`
    instead (requests come from acknowledgements, not a schedule).
    ``faults._run_message_faulted`` keeps its own prologue on purpose (a
    ``Network`` subclass, gated initiations, crash events); folding it in
    would make this function branch on its caller.  The
    :mod:`repro.apps.directory` designs run on the flat loops only.
    """
    schedule.validate_nodes(graph.num_nodes)
    sim = Simulator(max_events=max_events)
    net = Network(graph, sim, latency, seed=seed, service_time=service_time)
    result = RunResult(schedule)

    nodes = [make_node(result.record) for _ in range(graph.num_nodes)]
    net.register_all(nodes)  # attach assigns node ids
    init(nodes)

    for req in schedule:
        sim.call_at(req.time, nodes[req.node].initiate, req.rid)

    result.makespan = sim.run()
    result.network_stats = net.stats.as_dict()

    if len(result.rids) != len(schedule):
        raise ProtocolError(
            f"{protocol} run completed {len(result.rids)} of "
            f"{len(schedule)} requests"
        )
    return result


def run_arrow(
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
    """Run the arrow protocol on one schedule; return the results.

    Parameters mirror the paper's model knobs: ``latency`` selects
    synchronous (:class:`UnitLatency`, the default) or asynchronous
    behaviour; ``service_time`` adds per-node sequential message handling
    (0 = the §3.1 analysis model).  ``on_event``, when set, is called with
    the protocol trace as a list of event tuples
    (:mod:`repro.core.event_stream`; the vocabulary is in
    :mod:`repro.monitors`) — once, when the run ends or aborts — and
    leaves the results untouched.
    """
    require_spanning_subgraph(graph, [(u, v) for u, v, _ in tree.edges()])
    with emitting_to(on_event) as emit:

        def init(nodes: Sequence[ArrowNode]) -> None:
            for nd in nodes:
                nd.init_pointers(tree)
                nd.emit = emit

        return _run_open_loop(
            "arrow",
            graph,
            schedule,
            ArrowNode,
            init,
            latency=latency,
            seed=seed,
            service_time=service_time,
            max_events=max_events,
        )


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
    """Run the §5 centralized baseline; same result interface as arrow."""
    check_center(center, graph.num_nodes)
    return _run_open_loop(
        "centralized",
        graph,
        schedule,
        lambda on_complete: CentralizedNode(center, on_complete),
        lambda nodes: nodes[center].init_center(),
        latency=latency,
        seed=seed,
        service_time=service_time,
        max_events=max_events,
    )
