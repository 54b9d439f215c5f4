"""The message-level arrow run: the ground truth for every open-loop row.

:func:`run_arrow` builds the network, installs one
:class:`~repro.core.arrow.ArrowNode` per node, schedules every request's
initiation at its issue time, runs the simulation to completion and
returns a :class:`repro.core.queueing.RunResult`.  A run is watched
through its ``on_event`` sink (:mod:`repro.core.event_stream`) and
counted by :class:`repro.net.network.NetworkStats`; there is no other
observation channel.

The fast engine (:func:`repro.core.fast_arrow.run_arrow_fast`) and the
analysis layer's nearest-neighbour executor
(:mod:`repro.analysis.nearest_neighbor`) must agree with it — the second
on tie-free instances — invariants the tests enforce.  The open-loop
baselines (:func:`repro.core.fast_closed_loop.run_centralized` and
``run_adaptive``) and the directories run on the flat loops only; their
message versions are test oracles.  The closed loops have their own
harness, :func:`repro.workloads.closed_loop._run_closed_loop`, and
``faults._run_message_faulted`` keeps its own prologue (a ``Network``
subclass, gated initiations, crash events).
"""

from __future__ import annotations

from repro.core.arrow import ArrowNode
from repro.core.event_stream import emitting_to
from repro.core.queueing import RunResult
from repro.core.requests import RequestSchedule
from repro.errors import ProtocolError
from repro.graphs.graph import Graph
from repro.graphs.validation import require_spanning_subgraph
from repro.net.latency import LatencyModel
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.spanning.tree import SpanningTree

__all__ = ["run_arrow"]


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
    schedule.validate_nodes(graph.num_nodes)
    with emitting_to(on_event) as emit:
        sim = Simulator(max_events=max_events)
        net = Network(graph, sim, latency, seed=seed, service_time=service_time)
        result = RunResult(schedule)
        nodes = [ArrowNode(result.record) for _ in range(graph.num_nodes)]
        net.register_all(nodes)  # attach assigns node ids
        for nd in nodes:
            nd.init_pointers(tree)
            nd.emit = emit
        for req in schedule:
            sim.call_at(req.time, nodes[req.node].initiate, req.rid)
        result.makespan = sim.run()
    result.network_stats = net.stats.as_dict()
    if len(result.rids) != len(schedule):
        raise ProtocolError(
            f"arrow run completed {len(result.rids)} of {len(schedule)} requests"
        )
    return result
