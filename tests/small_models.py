"""The small-model oracle: every small arrow execution, on both engines.

One enumerated corpus and one checker for every small execution.  What
it checks is measured by ``tests/mutants.py``: every mutant of the two
fast loops that is not marked equivalent dies in the tier-1 slice.
Beside it, tier-1 keeps the sampled parity and property suites
(``tests/core/test_fast_arrow_differential.py``,
``test_fast_closed_loop_parity.py``, ``test_fifo_queue.py``,
``tests/properties/``) for the sizes the corpus cannot reach.  Nothing
here is drawn at random: every axis enumerates its instances (Dynamic
Gossip's all-executions-on-small-graphs, arXiv:1511.00867; fault plans
as classes of edge appearance after Casteigts et al., arXiv:1102.5529):

``open-unit``
    every rooted labelled tree (Prüfer sequences × roots) × every
    multiset of requests on a time lattice, ties included, × service
    time 0 / 0.5, at unit delay;
``open-weight``
    the same with every {1, 2} weighting of the tree edges and delay =
    weight;
``open-directed``
    a deterministic delay that depends on the link's direction (1 towards
    the larger label, 2 back);
``open-async``
    ``UniformLatency(0.2, 1)`` and ``ExponentialCappedLatency`` at fixed
    seeds;
``faults``
    every single crash on the lattice (the current sink included), every
    pair of them, one link window per tree edge and lattice time, and
    ``loss:0.3`` at fixed seeds;
``faults-async``
    the same plans under ``UniformLatency(0.2, 1)`` and
    ``ExponentialCappedLatency`` at fixed seeds;
``concurrent``
    paths, stars and caterpillars on 4 to 8 nodes × every root × unit
    delay and every {1, 2} weighting × service time 0 / 0.5, every node
    requesting at t = 0 — enough messages in flight at once that an
    event queue in the wrong order shows;
``closed-arrow`` / ``closed-central``
    the §5 closed loops on graph = tree and on K_n, up to 3 processors ×
    3 requests each, think time 0 / 0.5 / 1, unit and directed delay (a
    route read in the wrong direction shows), and (centralized) the
    centre at every node;
``dir-arrow`` / ``dir-home``
    the §5.1 directories on the closed loops' shapes (the home at every
    node), up to 3 acquisitions per processor, critical section 0 / 0.5
    / 1, unit, directed and uniform delay;
``open-central`` / ``open-adaptive``
    §5's centralized queue and the §1.1 NTA/Ivy pointers on
    ``closed-central``'s graphs (every tree, and K_n) × the centre (the
    pointers' root) at every node × the open axes' request multisets ×
    service time 0 / 0.5, unit, directed and uniform delay.

:func:`check` runs one instance through the fast loop (``run_arrow_fast``,
``closed_loop_*_fast``, ``run_arrow_faulted(engine="fast")``, the two
directories, ``run_centralized``, ``run_adaptive``) and through the message
harness (for the directories and the two open-loop baselines, the message
versions in ``tests/directory_oracles.py`` and ``tests/open_loop_oracles.py``),
and asserts:

* the raw event streams and the results (``RunResult``,
  ``ClosedLoopResult``, ``FaultReport``) are equal across engines, and a
  monitored fast run equals an unmonitored one;
* on fault-free runs: every message is a queue-path hop or an
  acknowledgement (or a centralized creq), and the fast loop completes
  with ``max_events`` = one event per initiation or first issue, per
  message stage (two with a service time) and per think-time re-issue,
  and not with one fewer;
* ``ArrowMonitor(deep=True)`` passes on both streams, ``finalize``
  included;
* no tree edge ever carries two queue messages, degraded runs included —
  the reason neither engine clamps a link's deliveries to its send order;
* after a fault plan: no illegal edge is left, completions + lost ==
  requests, and the monitor's lost set is the report's;
* on closed loops: every processor issues its budget, at t = 0 and then
  exactly one think time after each acknowledgement; no acknowledgement
  precedes its issue; the run ends with the last acknowledgement; a
  centralized request's hop count is its route's length; and with a
  service time and a deterministic delay the centre serves its creqs at
  least one service time apart;
* on directories: equal results (makespan, messages, completions and the
  holding intervals in hand-off order); mutual exclusion, each hand-off
  no earlier than the release before it, every processor served its
  budget, the run ending with the last release; an exact event count
  (one per first issue, per message stage, per release and per local
  hand-off) on both engines, with the same ``SimulationError`` one event
  short of it; and the home directory's four messages per remote
  hand-off, two per local one;
* on the open-loop baselines: equal results (``RunResult`` columns,
  makespan and network counters); a total order, every completion at
  the predecessor's issuer, the run ending with the last completion,
  every message routed and each hop counted once; the same exact event
  count (one per initiation and per message stage) on both engines; and
  for the centralized queue, two messages per request (one from the
  centre), each completion's hops the route to the centre plus the route
  back to the predecessor's issuer;
* on every open arrow run, faulted or not: no ``init`` at time t follows
  a ``deliver`` or a ``crash`` at t (initiations own the lowest seqs);
* on fault-free open arrow runs with a service time and a deterministic
  delay: every node's FIFO server, rebuilt from the stream (arrival =
  send time + the link's delay, served in (arrival, send order)), puts
  each ``deliver`` at exactly its rebuilt dispatch time;
* on fault-free synchronous runs (unit delay or delay = integer weight,
  service 0): a total order, Fact 3.6, Lemmas 3.8-3.10, the direct-path
  property, the executor's order when there are no ties, and arrow's cost
  within ``theorem_319_ceiling(1, D)`` of the exact ``held_karp_path``
  optimum; on stochastic delays: a total order, hops == hop distance,
  latency <= tree distance and Lemma 3.9.

A failure ends with a one-line literal that rebuilds the instance:
``check(Instance(...))``.

``tests/test_small_models.py`` runs :data:`SLICE` (n <= 4, the
concurrent axis to n = 5) in tier-1.
``PYTHONPATH=src python tests/small_models.py`` runs :data:`FULL`, which
contains the slice axis by axis, and prints the instance count per axis.
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from operator import ge
from typing import Callable, Iterator, Mapping

from repro.analysis.competitive import theorem_319_ceiling
from repro.analysis.costs import augmented_nodes_times, c_o_matrix, request_distance_matrix
from repro.analysis.nearest_neighbor import predict_arrow_run
from repro.analysis.optimal import held_karp_path
from repro.analysis.verify import check_lemma_3_8
from repro.apps.directory import arrow_directory, home_directory
from repro.core.fast_arrow import arrow_runner
from repro.core.fast_closed_loop import closed_loop_runner, run_adaptive, run_centralized
from repro.core.queueing import verify_total_order
from repro.core.requests import RequestSchedule
from repro.errors import SimulationError
from repro.faults import run_arrow_faulted
from repro.graphs import complete_graph
from repro.graphs.graph import Graph
from repro.graphs.shortest_paths import bfs_distances
from repro.monitors import ArrowMonitor
from repro.net.latency import UniformLatency, UnitLatency, WeightLatency
from repro.net.router import Router
from repro.spanning.metrics import tree_diameter
from repro.spanning.tree import SpanningTree
from directory_oracles import arrow_directory_message, home_directory_message
from open_loop_oracles import run_adaptive_message, run_centralized_message
from latency_models import ExponentialCappedLatency
from lemma_oracles import (
    check_direct_path_property,
    check_fact_3_6,
    check_lemma_3_9,
    lemma_3_10_identity_gap,
)
from tree_oracles import hop_distance

# ----------------------------------------------------------------------
# trees and schedules
# ----------------------------------------------------------------------


def tree_graph(tree: SpanningTree) -> Graph:
    """``tree`` as an undirected graph (graph = tree), its weights kept."""
    links = [v for v in range(tree.num_nodes) if v != tree.root]
    weights = [tree.edge_weight[v] for v in links]
    return Graph.from_columns(tree.num_nodes, links, [tree.parent[v] for v in links], weights)


def rerooted(tree: SpanningTree, root: int) -> SpanningTree:
    """The same tree rooted at ``root``."""
    return SpanningTree.from_edges(tree.num_nodes, tree.edges(), root)


def prufer_edges(seq, n):
    """The labelled tree on ``0..n-1`` encoded by Prüfer sequence ``seq``."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(i for i in range(n) if degree[i] == 1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    if n >= 2:
        edges.append(tuple(i for i in range(n) if degree[i] == 1))
    return edges


def labelled_trees(n):
    """Every labelled tree on ``n`` nodes as a tuple of edges (n^(n-2) of them)."""
    for seq in itertools.product(range(n), repeat=max(n - 2, 0)):
        yield tuple(prufer_edges(seq, n))


def rooted_trees(n):
    """Every rooted labelled tree on ``n`` nodes: ``(edges, root)`` pairs."""
    for edges in labelled_trees(n):
        for root in range(n):
            yield edges, root


def request_multisets(n, times, max_requests):
    """Every non-empty multiset of at most ``max_requests`` ``(node, time)``
    requests on ``n`` nodes × ``times``, in time order."""
    kinds = [(v, t) for t in times for v in range(n)]
    for k in range(1, max_requests + 1):
        yield from itertools.combinations_with_replacement(kinds, k)


class DirectedLatency(UnitLatency):
    """Deterministic but direction-dependent, as the latency ABC permits."""

    def sample(self, src, dst, weight, rng):
        return 1.0 if src < dst else 2.0

    def max_delay(self, weight):
        return 2.0


#: The corpus' delay shapes by name; the stochastic ones run at fixed seeds.
DELAYS = {
    "unit": UnitLatency(),
    "weight": WeightLatency(),
    "directed": DirectedLatency(),
    "uniform": UniformLatency(0.2, 1.0),
    "expcap": ExponentialCappedLatency(),
}

#: Delays under which a fault-free, service-free run is the synchronous
#: model of Section 3 (an integer weight is that many unit edges).
SYNCHRONOUS = ("unit", "weight")


# ----------------------------------------------------------------------
# instances
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Instance:
    """One small execution; its ``repr`` is the literal that rebuilds it.

    ``edges`` are the tree's links on ``len(edges) + 1`` nodes, ``weights``
    their weights (empty: all 1).  ``protocol`` is empty for an open-loop
    run of ``requests`` (``faults`` a fault-plan label), else the closed
    loop's protocol, run with ``rpp`` requests per processor on the tree
    (``complete``: on K_n) with the centralized centre at ``center``, or
    a directory (``dir-arrow``, ``dir-home``): ``rpp`` acquisitions per
    processor, each held ``cs``, the home at ``center``, or an open-loop
    baseline (``open-central``, ``open-adaptive``) of ``requests`` on the
    tree or K_n, the centre (the pointers' root) at ``center``.
    """

    edges: tuple
    root: int
    requests: tuple = ()
    weights: tuple = ()
    delay: str = "unit"
    seed: int = 0
    service: float = 0.0
    faults: str = ""
    protocol: str = ""
    complete: bool = False
    rpp: int = 0
    think: float = 0.0
    center: int = 0
    cs: float = 0.0

    def __repr__(self) -> str:
        shown = (
            f"{f.name}={getattr(self, f.name)!r}"
            for f in dataclasses.fields(self)
            if getattr(self, f.name) != f.default
        )
        return f"Instance({', '.join(shown)})"


class SmallModelFailure(AssertionError):
    """An instance failed a check; the message ends with its literal."""


@lru_cache(maxsize=16)
def _topology(edges, weights, root, complete):
    n = len(edges) + 1
    if weights:
        edges = [(u, v, w) for (u, v), w in zip(edges, weights)]
    tree = SpanningTree.from_edges(n, edges, root)
    return (complete_graph(n) if complete else tree_graph(tree)), tree


def _watched(run, engine, tree, expected):
    """``run(engine, sink)`` with a sink that keeps the raw stream and feeds
    a deep monitor; returns the run's output, the stream and the monitor."""
    events = []
    monitor = ArrowMonitor(tree, deep=True)

    def sink(chunk):
        events.extend(chunk)
        monitor(chunk)

    out = run(engine, sink)
    monitor.finalize(expected=expected)
    return out, events, monitor


def _same_stream(fast, message):
    """Equal raw event streams, or the first event where they part."""
    if fast != message:
        k = next(
            (i for i, (a, b) in enumerate(zip(fast, message)) if a != b),
            min(len(fast), len(message)),
        )
        got = fast[k] if k < len(fast) else "end"
        want = message[k] if k < len(message) else "end"
        raise AssertionError(f"event #{k}: fast {got} vs message {want}")


def _one_message_per_edge(parent, events):
    """No tree edge ever has two queue messages in flight."""
    load = [0] * len(parent)
    for ev in events:
        kind = ev[0]
        if kind == "send":
            u, v = ev[2], ev[3]
            child = u if parent[u] == v else v
            load[child] += 1
            if load[child] > 1:
                raise AssertionError(f"edge ({u}, {v}) carries two messages at {ev}")
        elif kind == "deliver" or (kind == "drop" and ev[2] >= 0):
            u, v = (ev[2], ev[3]) if kind == "drop" else (ev[3], ev[2])
            load[u if parent[u] == v else v] -= 1


def _both_engines(run, tree, expected):
    """``run(engine, on_event)`` on both engines: equal streams and outputs,
    monitored == unmonitored, one message per edge; the fast output, its
    monitor and its stream."""
    bare = run("fast", None)
    fast, events, monitor = _watched(run, "fast", tree, expected)
    message, message_events, _ = _watched(run, "message", tree, expected)
    _same_stream(events, message_events)
    assert fast == message, "results differ across engines"
    assert fast == bare, "a monitored run differs from an unmonitored one"
    _one_message_per_edge(tree.parent, events)
    return fast, monitor, events


def _paper_properties(tree, schedule, result):
    """Section 3 on a synchronous run with graph = tree; returns arrow/opt."""
    order = verify_total_order(result)
    assert check_fact_3_6(tree, schedule), "Fact 3.6: c_T < 0"
    assert check_lemma_3_8(tree, schedule, order), "Lemma 3.8: not an NN path under c_T"
    assert check_lemma_3_9(tree, schedule, order), "Lemma 3.9: time-separated pair reordered"
    gap = lemma_3_10_identity_gap(tree, schedule, order)
    assert gap < 1e-9, f"Lemma 3.10: identity gap {gap}"
    assert check_direct_path_property(tree, result), "direct-path property"
    predicted = predict_arrow_run(tree, schedule)
    if not predicted.had_ties:
        assert order == predicted.order, f"executor order {predicted.order} != {order}"
    nodes, times = augmented_nodes_times(schedule, tree.root)
    opt, _ = held_karp_path(c_o_matrix(request_distance_matrix(tree, nodes), times))
    cost = result.total_latency
    ceiling = theorem_319_ceiling(1.0, tree_diameter(tree))
    assert cost <= ceiling * opt + 1e-9, f"cost {cost} above {ceiling} x opt {opt}"
    return cost / opt if opt else None


def _async_properties(tree, schedule, result):
    """§3.8 on a run whose every delay is at most its link's weight."""
    order = verify_total_order(result)
    nodes, times = schedule.nodes, schedule.times
    for rid, informed, at, hops in zip(
        result.rids, result.informed_nodes, result.completed_at, result.hops
    ):
        v = nodes[rid]
        assert hops == hop_distance(tree, v, informed), f"request {rid}: {hops} hops"
        latency = at - times[rid]
        assert 0.0 <= latency <= tree.distance(v, informed) + 1e-9, (
            f"request {rid}: latency {latency} beyond the tree distance"
        )
    assert check_lemma_3_9(tree, schedule, order), "Lemma 3.9: time-separated pair reordered"


def _fires_exactly(run, events):
    """``run(max_events)`` completes with ``events`` and not with one fewer."""
    run(events)
    try:
        run(events - 1)
    except SimulationError:
        return
    raise AssertionError(f"the run fires fewer than {events} events")


def _busy_queues(tree, latency, service, events):
    """Replay every node's FIFO server from the stream of a fault-free run
    under a deterministic delay: each ``deliver`` is at its rebuilt
    dispatch time, exactly.

    A message sent at ``t`` over v -> x arrives at ``t + delay(v, x)``; x
    serves its arrivals in (time, send order), each for ``service``, so
    ``dispatch_k = max(dispatch_{k-1}, arrival_k) + service``.
    """
    parent, weight = tree.parent, tree.edge_weight
    arrivals = {}  # x -> [(arrival, send index, rid)]
    delivered = {}  # (rid, x) -> the deliver's time
    for k, ev in enumerate(events):
        if ev[0] == "send":
            _, rid, v, x, t = ev
            w = weight[v if parent[v] == x else x]
            arrivals.setdefault(x, []).append((t + latency.sample(v, x, w, None), k, rid))
        elif ev[0] == "deliver":
            delivered[ev[1], ev[2]] = ev[4]
    for x, queue in arrivals.items():
        free = 0.0
        for arrival, _, rid in sorted(queue):
            free = max(free, arrival) + service
            got = delivered.get((rid, x))
            assert got == free, (
                f"request {rid} handled at node {x} at {got}, its FIFO slot ends at {free}"
            )


def _initiations_fire_first(events):
    """No ``init`` at time t follows a ``deliver`` or a ``crash`` at t.

    A schedule's initiations own the seqs 0..m-1, below every event the
    run queues, so at one time they fire before any delivery or crash.
    """
    last = None  # the latest deliver or crash
    for ev in events:
        if ev[0] in ("deliver", "crash"):
            last = ev
        elif ev[0] == "init" and last is not None and last[-1] == ev[-1]:
            raise AssertionError(f"{ev} fires after {last}")


def _open_properties(inst, tree, schedule, result, run, events):
    """Every message is one hop of a request's queue path, and the loop
    fires one event per initiation and per message stage; initiations fire
    first (:func:`_initiations_fire_first`); with a service time and a
    deterministic delay, every node's queue replays (:func:`_busy_queues`);
    Section 3 or §3.8 where they apply.  Returns arrow/opt when Section 3
    does."""
    _initiations_fire_first(events)
    hops = sum(result.hops)
    assert result.network_stats["messages_sent"] == hops, f"{hops} hops, other messages"
    stages = 2 if inst.service else 1
    _fires_exactly(lambda limit: run("fast", None, max_events=limit),
                   len(schedule) + stages * hops)
    latency = DELAYS[inst.delay]
    if inst.service and not latency.stochastic:
        _busy_queues(tree, latency, inst.service, events)
    if inst.service == 0.0:
        if inst.delay in SYNCHRONOUS:
            return _paper_properties(tree, schedule, result)
        if DELAYS[inst.delay].stochastic:
            _async_properties(tree, schedule, result)
    return None


def _fault_properties(schedule, result, report, monitor, events):
    """A degraded run leaves a legal configuration and balanced books, and
    its initiations fire first (:func:`_initiations_fire_first`)."""
    _initiations_fire_first(events)
    assert report.final_violations == 0, f"{report.final_violations} illegal edges left"
    assert len(result.rids) + report.requests_lost == len(schedule), "books do not balance"
    assert monitor.lost == set(report.lost_rids), "monitor and report lose different rids"
    assert monitor.completed == set(result.rids), "monitor saw other completions"


def _centre_serves_one_at_a_time(result, inst, graph):
    """The centre's server holds one message at a time: the creqs of
    off-centre requests are dispatched at least one service time apart.

    An off-centre processor's server handles only its own
    acknowledgements, one at a time, so each starts at its arrival: a
    creq's dispatch is its ack time less the route back and one service.
    """
    back = Router(graph, DELAYS[inst.delay], None).delay_hops
    service = inst.service
    served = sorted(
        ack - back(inst.center, p)[0] - service
        for p, ack in zip(result.owners, result.ack_times)
        if p != inst.center
    )
    for a, b in zip(served, served[1:]):
        assert b - a >= service - 1e-9, f"the centre served creqs at {a} and {b}"


def _closed_properties(result, inst, graph, run):
    """§5's loop discipline on any closed-loop result.

    Every processor issues its budget, the first request at t = 0 and
    each next one exactly ``think`` after the previous acknowledgement;
    no acknowledgement precedes its issue; the run ends with the last
    acknowledgement.  A centralized request travels the route to the
    centre: its hop count is that route's length, and with a service
    time the centre serves one creq at a time
    (:func:`_centre_serves_one_at_a_time`).  Messages are the
    queue paths' hops (arrow) or one creq per request from off the
    centre (centralized), plus one acknowledgement per request.  The
    loop fires one event per first issue, per message stage and, with a
    think time, per re-issue (``run(max_events)`` reruns the fast loop).
    """
    n, rpp = graph.num_nodes, inst.rpp
    hops = result.hops
    assert result.completions == len(hops) == n * rpp, "not every request completed"
    assert result.local_finds == hops.count(0), "local finds miscounted"
    sent = sum(hops) if inst.protocol == "arrow" else len(hops) - hops.count(0)
    assert result.messages_sent == sent + len(hops), "messages miscounted"
    stages = 2 if inst.service else 1
    reissues = n * rpp - n if inst.think else 0
    _fires_exactly(run, n + stages * result.messages_sent + reissues)
    assert min(result.latencies) >= 0.0, "a request completed before its issue"
    owners, issued, acked = result.owners, result.issue_times, result.ack_times
    for p in range(n):
        rids = [rid for rid, owner in enumerate(owners) if owner == p]
        assert len(rids) == rpp, f"processor {p} issued {len(rids)} requests"
        assert issued[rids[0]] == 0.0, f"processor {p} started late"
        for rid, after in zip(rids, rids[1:]):
            assert issued[after] == acked[rid] + inst.think, f"request {after} re-issued off beat"
    assert all(map(ge, acked, issued)), "an acknowledgement precedes its issue"
    assert result.makespan == max(acked), "the run does not end with its last acknowledgement"
    if inst.protocol == "centralized" and not inst.weights:
        route = bfs_distances(graph, inst.center)
        assert sorted(hops) == sorted(route[v] for v in owners), "a creq left its route"
    if inst.protocol == "centralized" and inst.service and not DELAYS[inst.delay].stochastic:
        _centre_serves_one_at_a_time(result, inst, graph)


def _check_open(inst):
    graph, tree = _topology(inst.edges, inst.weights, inst.root, inst.complete)
    schedule = RequestSchedule(inst.requests)
    knobs = dict(latency=DELAYS[inst.delay], seed=inst.seed, service_time=inst.service)

    def run(engine, on_event, **limit):
        if inst.faults:
            return run_arrow_faulted(
                graph, tree, schedule, inst.faults, engine=engine, on_event=on_event, **knobs
            )
        runner = arrow_runner(engine)
        return runner(graph, tree, schedule, on_event=on_event, **knobs, **limit), None

    (result, report), monitor, events = _both_engines(run, tree, len(schedule))
    if report is not None:
        _fault_properties(schedule, result, report, monitor, events)
        return None
    return _open_properties(inst, tree, schedule, result, run, events)


def _loop_knobs(inst):
    return dict(
        requests_per_proc=inst.rpp,
        latency=DELAYS[inst.delay],
        seed=inst.seed,
        service_time=inst.service,
        think_time=inst.think,
    )


def _check_closed_arrow(inst):
    graph, tree = _topology(inst.edges, inst.weights, inst.root, inst.complete)
    knobs = _loop_knobs(inst)

    def run(engine, on_event, **limit):
        runner = closed_loop_runner("arrow", engine)
        return runner(graph, tree, on_event=on_event, **knobs, **limit)

    result, _, _ = _both_engines(run, tree, tree.num_nodes * inst.rpp)
    _closed_properties(result, inst, graph, lambda limit: run("fast", None, max_events=limit))


def _same_results(run):
    """``run(engine)`` on both engines: equal outputs; the fast one."""
    fast = run("fast")
    assert fast == run("message"), "results differ across engines"
    return fast


def _check_closed_central(inst):
    graph, _ = _topology(inst.edges, inst.weights, inst.root, inst.complete)
    knobs = _loop_knobs(inst)

    def run(engine, **limit):
        return closed_loop_runner("centralized", engine)(graph, inst.center, **knobs, **limit)

    _closed_properties(
        _same_results(run), inst, graph, lambda limit: run("fast", max_events=limit)
    )


#: Directory axis -> engine -> runner.
_DIRECTORIES = {
    "dir-arrow": {"fast": arrow_directory, "message": arrow_directory_message},
    "dir-home": {"fast": home_directory, "message": home_directory_message},
}


def _hand_offs(result, first):
    """``(local, remote)`` hand-offs: the object starts at ``first`` and
    moves, in hand-off order, to each holding interval's node."""
    nodes = [first, *(v for _, _, v in result.intervals)]
    local = sum(a == b for a, b in zip(nodes, nodes[1:]))
    return local, len(result.intervals) - local


def _directory_events(inst, tree, result):
    """The events a directory run fires: one per first issue, per message
    stage (two with a service time) and per release, and in the arrow
    directory one per local hand-off (a zero-delay acquire event; the
    home directory acquires a local object inline)."""
    stages = 2 if inst.service else 1
    events = tree.num_nodes + stages * result.messages_sent + len(result.intervals)
    if inst.protocol == "dir-arrow":
        events += _hand_offs(result, tree.root)[0]
    return events


def _limit_outcome(run, engine, limit):
    """The run's result under ``max_events=limit``, or its error text."""
    try:
        return run(engine, max_events=limit)
    except SimulationError as exc:
        return str(exc)


def _directory_properties(result, inst, tree, events, run):
    """§5.1's invariants on a directory run.

    Every processor is served its budget; in hand-off order no
    acquisition precedes the release before it (so the holding intervals
    never overlap: ``exclusion_holds``), each interval lasts ``cs``, and
    the run ends with the last release.  The home directory sends a
    request and a release notice per acquisition, plus a forward and the
    object per remote hand-off.  The fast run fires exactly ``events``.
    """
    n, intervals = tree.num_nodes, result.intervals
    assert result.completions == len(intervals) == n * inst.rpp, "not every acquisition completed"
    assert result.exclusion_holds(), "two holding intervals overlap"
    for (_, release, _), (acquire, _, v) in zip(intervals, intervals[1:]):
        assert release <= acquire, f"node {v} acquired at {acquire} before the release at {release}"
    assert all(r == a + inst.cs for a, r, _ in intervals), "a critical section of another length"
    for p in range(n):
        held = sum(v == p for _, _, v in intervals)
        assert held == inst.rpp, f"processor {p} acquired {held} times"
    assert result.makespan == max((r for _, r, _ in intervals), default=0.0), (
        "the run does not end with its last release"
    )
    if inst.protocol == "dir-home":
        _, remote = _hand_offs(result, inst.center)
        assert result.messages_sent == 2 * len(intervals) + 2 * remote, "messages miscounted"
    _fires_exactly(lambda limit: run("fast", max_events=limit), events)


def _check_directory(inst):
    graph, tree = _topology(inst.edges, inst.weights, inst.root, inst.complete)
    runners = _DIRECTORIES[inst.protocol]
    second = tree if inst.protocol == "dir-arrow" else inst.center
    knobs = dict(
        acquisitions_per_proc=inst.rpp,
        cs_time=inst.cs,
        latency=DELAYS[inst.delay],
        seed=inst.seed,
        service_time=inst.service,
    )

    def run(engine, **limit):
        return runners[engine](graph, second, **knobs, **limit)

    result = _same_results(run)
    events = _directory_events(inst, tree, result)
    _directory_properties(result, inst, tree, events, run)
    # Both engines fire the same events: each completes with exactly
    # ``events`` and raises the same error one short of it (a run cut at
    # k events is cut at every smaller limit too).
    for limit in (events - 1, events):
        _same_results(lambda engine: _limit_outcome(run, engine, limit))


#: Open-loop baseline axis -> engine -> runner.
_BASELINES = {
    "open-central": {"fast": run_centralized, "message": run_centralized_message},
    "open-adaptive": {"fast": run_adaptive, "message": run_adaptive_message},
}


def _baseline_properties(result, inst, graph, schedule, events, run):
    """The open-loop baselines' invariants.

    A total order; each request completes at its predecessor's issuer (the
    centre, or the pointers' root, for the root request), and the run
    ends with the last completion.  Every message is routed and each
    route's hops count once, in the completion it belongs to.  The
    centralized queue sends a creq per request from off the centre and a
    cinform per request, and a completion's hops are the route to the
    centre plus the route back to the predecessor's issuer.  The fast run
    fires exactly ``events``.
    """
    verify_total_order(result)
    nodes, stats = schedule.nodes, result.network_stats
    messages = stats["messages_sent"]
    for rid, pred, informed in zip(result.rids, result.predecessors, result.informed_nodes):
        issuer = nodes[pred] if pred >= 0 else inst.center
        assert informed == issuer, f"request {rid} completed at {informed}, not at {issuer}"
    assert result.makespan == max(result.completed_at), "the run does not end with a completion"
    assert stats["link_messages"] == 0 and stats["routed_messages"] == messages, "unrouted messages"
    assert stats["hops_total"] == sum(result.hops), "hops counted outside the completions"
    if inst.protocol == "open-central":
        assert messages == 2 * len(nodes) - nodes.count(inst.center), "messages miscounted"
        route = bfs_distances(graph, inst.center)
        for rid, informed, hops in zip(result.rids, result.informed_nodes, result.hops):
            want = route[nodes[rid]] + route[informed]
            assert hops == want, f"request {rid}: {hops} hops, its two routes {want}"
    _fires_exactly(lambda limit: run("fast", max_events=limit), events)


def _check_baseline(inst):
    graph, _ = _topology(inst.edges, inst.weights, inst.root, inst.complete)
    schedule = RequestSchedule(inst.requests)
    runners = _BASELINES[inst.protocol]
    knobs = dict(latency=DELAYS[inst.delay], seed=inst.seed, service_time=inst.service)

    def run(engine, **limit):
        return runners[engine](graph, inst.center, schedule, **knobs, **limit)

    result = _same_results(run)
    # One event per initiation and per message stage (two with a service
    # time); both engines complete with exactly these and raise the same
    # error one short of them.
    events = len(schedule) + (2 if inst.service else 1) * result.network_stats["messages_sent"]
    _baseline_properties(result, inst, graph, schedule, events, run)
    for limit in (events - 1, events):
        _same_results(lambda engine: _limit_outcome(run, engine, limit))


_CHECKS = {
    "": _check_open,
    "arrow": _check_closed_arrow,
    "centralized": _check_closed_central,
    "dir-arrow": _check_directory,
    "dir-home": _check_directory,
    "open-central": _check_baseline,
    "open-adaptive": _check_baseline,
}


def check(inst: Instance) -> float | None:
    """Run every check on one instance; arrow/opt where Section 3 applies.

    Raises :class:`SmallModelFailure` naming the instance.
    """
    try:
        return _CHECKS[inst.protocol](inst)
    except Exception as exc:
        raise SmallModelFailure(
            f"{type(exc).__name__}: {exc}\n  rebuild: check({inst!r})"
        ) from exc


# ----------------------------------------------------------------------
# the corpus
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Axis:
    """How far one axis of the corpus reaches.

    ``requests[n]`` is the largest request multiset on n-node trees (the
    largest per-processor budget, for a closed loop or a directory); an
    n not in it is not enumerated.  ``times`` is the lattice requests,
    crashes and link windows sit on.  Every other field is enumerated as
    given (``cs_times`` by the directories); ``seeds`` only for
    stochastic delays and loss.  Each generator is monotone in
    every field, so an axis that reaches at least as far contains this one.
    """

    requests: Mapping[int, int]
    times: tuple = (0.0, 1.0)
    services: tuple = (0.0, 0.5)
    delays: tuple = ("unit",)
    seeds: tuple = (0,)
    thinks: tuple = (0.0,)
    cs_times: tuple = (0.5,)

    def contains(self, other: "Axis") -> bool:
        """True iff every instance ``other`` enumerates, this one does too."""
        return all(
            other.requests[n] <= self.requests.get(n, 0) for n in other.requests
        ) and all(
            set(getattr(other, f)) <= set(getattr(self, f))
            for f in ("times", "services", "delays", "seeds", "thinks", "cs_times")
        )


def _delay_seeds(axis):
    for delay in axis.delays:
        for seed in axis.seeds if DELAYS[delay].stochastic else (0,):
            yield delay, seed


def _weightings(delay, n):
    if delay != "weight":
        return ((),)
    return itertools.product((1.0, 2.0), repeat=n - 1)


def open_loop(axis: Axis) -> Iterator[Instance]:
    """Trees × request multisets × delays (and their weightings / seeds) ×
    service times, fault-free."""
    for n, k in axis.requests.items():
        for edges, root in rooted_trees(n):
            for requests in request_multisets(n, axis.times, k):
                for delay, seed in _delay_seeds(axis):
                    for weights in _weightings(delay, n):
                        for service in axis.services:
                            yield Instance(
                                edges, root, requests, weights=weights,
                                delay=delay, seed=seed, service=service,
                            )


def _fault_plans(edges, n, axis, delay):
    """``(label, seed)`` of every plan of a faults axis on one tree: under a
    stochastic delay every plan at every seed, else only the loss plan."""
    crashes = [f"crash@{t:g}:{v}" for t in axis.times for v in range(n)]
    plans = [*crashes, *map(",".join, itertools.combinations(crashes, 2))]
    plans += [f"link@{u}-{v}:{t:g}-{t + 1:g}" for u, v in edges for t in axis.times]
    plans.append("loss:0.3")
    seeded = DELAYS[delay].stochastic
    return [
        (p, seed) for p in plans
        for seed in (axis.seeds if seeded or p.startswith("loss") else (0,))
    ]


def faults(axis: Axis) -> Iterator[Instance]:
    """Trees × request multisets × delays × fault plans (and seeds) ×
    service times."""
    for n, k in axis.requests.items():
        for edges, root in rooted_trees(n):
            plans = {delay: _fault_plans(edges, n, axis, delay) for delay in axis.delays}
            for requests in request_multisets(n, axis.times, k):
                for delay in axis.delays:
                    for plan, seed in plans[delay]:
                        for service in axis.services:
                            yield Instance(
                                edges, root, requests, delay=delay, seed=seed,
                                service=service, faults=plan,
                            )


def _shapes(n):
    """A path, a star and a caterpillar on ``n`` nodes, as edge tuples.

    The caterpillar's spine is ``0..s-1`` (``s = ceil(n / 2)``), and leaf
    ``s + i`` hangs off spine node ``i``.
    """
    spine = (n + 1) // 2
    path = tuple((v, v + 1) for v in range(n - 1))
    star = tuple((0, v) for v in range(1, n))
    caterpillar = path[: spine - 1] + tuple((v - spine, v) for v in range(spine, n))
    return tuple(dict.fromkeys((path, star, caterpillar)))


def concurrent(axis: Axis) -> Iterator[Instance]:
    """Paths, stars and caterpillars on each n of ``axis.requests`` × every
    root × delays (and every weighting) × service times, every node
    requesting at each lattice time: the most requests in flight at once
    that n nodes allow."""
    for n in axis.requests:
        requests = tuple((v, t) for t in axis.times for v in range(n))
        for edges in _shapes(n):
            for root in range(n):
                for delay, seed in _delay_seeds(axis):
                    for weights in _weightings(delay, n):
                        for service in axis.services:
                            yield Instance(
                                edges, root, requests, weights=weights,
                                delay=delay, seed=seed, service=service,
                            )


def _loops(axis, n):
    """``(rpp, think, service, delay, seed)`` of every closed loop on n nodes."""
    return itertools.product(
        range(1, axis.requests[n] + 1), axis.thinks, axis.services, _delay_seeds(axis)
    )


def closed_arrow(axis: Axis) -> Iterator[Instance]:
    """Rooted trees, on graph = tree and on K_n, × closed-loop settings."""
    for n in axis.requests:
        for edges, root in rooted_trees(n):
            for complete in (False, True) if n > 2 else (False,):
                for rpp, think, service, (delay, seed) in _loops(axis, n):
                    yield Instance(
                        edges, root, delay=delay, seed=seed, service=service,
                        protocol="arrow", complete=complete, rpp=rpp, think=think,
                    )


def _central_graphs(n):
    """``(edges, complete)``: every labelled tree as the graph, and K_n."""
    graphs = [(edges, False) for edges in labelled_trees(n)]
    if n > 2:
        graphs.append((graphs[0][0], True))
    return graphs


def closed_central(axis: Axis) -> Iterator[Instance]:
    """Every tree as the graph, and K_n, × the centre at every node ×
    closed-loop settings."""
    for n in axis.requests:
        for edges, complete in _central_graphs(n):
            for center in range(n):
                for rpp, think, service, (delay, seed) in _loops(axis, n):
                    yield Instance(
                        edges, 0, delay=delay, seed=seed, service=service,
                        protocol="centralized", complete=complete, rpp=rpp,
                        think=think, center=center,
                    )


def _directory_loops(axis, n):
    """``(acquisitions, cs, service, delay, seed)`` of every directory run on
    n nodes."""
    return itertools.product(
        range(1, axis.requests[n] + 1), axis.cs_times, axis.services, _delay_seeds(axis)
    )


def dir_arrow(axis: Axis) -> Iterator[Instance]:
    """The arrow directory on ``closed_arrow``'s shapes × directory settings."""
    for n in axis.requests:
        for edges, root in rooted_trees(n):
            for complete in (False, True) if n > 2 else (False,):
                for rpp, cs, service, (delay, seed) in _directory_loops(axis, n):
                    yield Instance(
                        edges, root, delay=delay, seed=seed, service=service,
                        protocol="dir-arrow", complete=complete, rpp=rpp, cs=cs,
                    )


def dir_home(axis: Axis) -> Iterator[Instance]:
    """The home directory on ``closed_central``'s graphs × the home at
    every node × directory settings."""
    for n in axis.requests:
        for edges, complete in _central_graphs(n):
            for home in range(n):
                for rpp, cs, service, (delay, seed) in _directory_loops(axis, n):
                    yield Instance(
                        edges, 0, delay=delay, seed=seed, service=service,
                        protocol="dir-home", complete=complete, rpp=rpp,
                        center=home, cs=cs,
                    )


def _baselines(protocol, axis):
    """``closed_central``'s graphs × the centre (the pointers' root) at
    every node × request multisets × delays (and seeds) × service times."""
    for n, k in axis.requests.items():
        for edges, complete in _central_graphs(n):
            for center in range(n):
                for requests in request_multisets(n, axis.times, k):
                    for delay, seed in _delay_seeds(axis):
                        for service in axis.services:
                            yield Instance(
                                edges, 0, requests, delay=delay, seed=seed,
                                service=service, protocol=protocol,
                                complete=complete, center=center,
                            )


def open_central(axis: Axis) -> Iterator[Instance]:
    """The centralized queue: :func:`_baselines`."""
    return _baselines("open-central", axis)


def open_adaptive(axis: Axis) -> Iterator[Instance]:
    """The NTA/Ivy pointers: :func:`_baselines`."""
    return _baselines("open-adaptive", axis)


#: Axis name -> its generator.
AXES: dict[str, Callable[[Axis], Iterator[Instance]]] = {
    "open-unit": open_loop,
    "open-weight": open_loop,
    "open-directed": open_loop,
    "open-async": open_loop,
    "faults": faults,
    "faults-async": faults,
    "concurrent": concurrent,
    "closed-arrow": closed_arrow,
    "closed-central": closed_central,
    "dir-arrow": dir_arrow,
    "dir-home": dir_home,
    "open-central": open_central,
    "open-adaptive": open_adaptive,
}

_ASYNC = ("uniform", "expcap")
_LOOPS = Axis({1: 3, 2: 3, 3: 3}, thinks=(0.0, 0.5, 1.0), delays=("unit", "directed"))
_LOOPS_FULL = dataclasses.replace(
    _LOOPS, delays=("unit", "directed", "uniform"), seeds=(0, 1)
)
_DIRS = Axis(
    {1: 3, 2: 3, 3: 3}, cs_times=(0.0, 0.5, 1.0), delays=("unit", "directed", "uniform")
)
_DIRS_FULL = dataclasses.replace(_DIRS, requests={1: 3, 2: 3, 3: 3, 4: 2}, seeds=(0, 1))
_CONCURRENT = Axis({4: 1, 5: 1}, times=(0.0,), delays=("unit", "weight"))
_BASELINE = Axis({1: 3, 2: 3, 3: 2}, delays=("unit", "directed", "uniform"))
_BASELINE_FULL = dataclasses.replace(
    _BASELINE, requests={1: 3, 2: 3, 3: 3, 4: 2}, seeds=(0, 1)
)

#: The tier-1 slice: n <= 4 (the concurrent axis to n = 5), a few seconds
#: in one process.  Service time 0.5 at unit delay runs on the faults,
#: concurrent and closed-loop axes here.
SLICE = {
    "open-unit": Axis({1: 3, 2: 3, 3: 3, 4: 2}, services=(0.0,)),
    "open-weight": Axis({2: 3, 3: 1}, services=(0.0,), delays=("weight",)),
    "open-directed": Axis({2: 3, 3: 2}, delays=("directed",)),
    "open-async": Axis({2: 3, 3: 2}, services=(0.0,), delays=_ASYNC),
    "faults": Axis({2: 2, 3: 1}),
    "faults-async": Axis({2: 2}, delays=("uniform",)),
    "concurrent": _CONCURRENT,
    "closed-arrow": _LOOPS,
    "closed-central": _LOOPS,
    "dir-arrow": _DIRS,
    "dir-home": _DIRS,
    "open-central": _BASELINE,
    "open-adaptive": _BASELINE,
}

#: The full corpus, a few minutes; on the unit-delay fault-free axis it
#: reaches n = 6 (single requests: every tree, root, node and time).
FULL = {
    "open-unit": Axis({1: 3, 2: 3, 3: 3, 4: 3, 5: 2, 6: 1}, times=(0.0, 1.0, 2.0)),
    "open-weight": Axis({2: 3, 3: 3, 4: 2}, delays=("weight",)),
    "open-directed": Axis({2: 3, 3: 3, 4: 3}, delays=("directed",)),
    "open-async": Axis({2: 3, 3: 3, 4: 3}, delays=_ASYNC, seeds=(0, 1, 2)),
    "faults": Axis({2: 3, 3: 2, 4: 2}, seeds=(0, 1, 2)),
    "faults-async": Axis({2: 3, 3: 2}, delays=_ASYNC, seeds=(0, 1)),
    "concurrent": dataclasses.replace(_CONCURRENT, requests={4: 1, 5: 1, 6: 1, 7: 1, 8: 1}),
    "closed-arrow": _LOOPS_FULL,
    "closed-central": _LOOPS_FULL,
    "dir-arrow": _DIRS_FULL,
    "dir-home": _DIRS_FULL,
    "open-central": _BASELINE_FULL,
    "open-adaptive": _BASELINE_FULL,
}


def run_axis(name: str, axis: Axis) -> tuple[int, list[str], float]:
    """Check every instance of one axis: ``(count, failures, worst arrow/opt)``."""
    count, failures, worst = 0, [], 0.0
    for inst in AXES[name](axis):
        count += 1
        try:
            ratio = check(inst)
        except SmallModelFailure as exc:
            failures.append(str(exc))
            continue
        if ratio is not None and ratio > worst:
            worst = ratio
    return count, failures, worst


def main() -> int:
    """Check the full corpus axis by axis, printing the count and failures
    of each."""
    total = failed = 0
    start = time.perf_counter()
    for name, axis in FULL.items():
        t0 = time.perf_counter()
        count, failures, worst = run_axis(name, axis)
        note = f"  worst arrow/opt {worst:.3f}" if worst else ""
        print(
            f"{name:<15}{count:>10,} instances{len(failures):>8,} failed"
            f"{time.perf_counter() - t0:>8.1f} s{note}",
            flush=True,
        )
        for text in failures[:3]:
            print("    " + text.replace("\n", "\n    "))
        total += count
        failed += len(failures)
    print(f"{'total':<15}{total:>10,} instances{failed:>8,} failed"
          f"{time.perf_counter() - start:>8.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
