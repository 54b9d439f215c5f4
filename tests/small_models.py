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
    centre at every node.

:func:`check` runs one instance through the fast loop (``run_arrow_fast``,
``closed_loop_*_fast``, ``run_arrow_faulted(engine="fast")``) and through
the message harness, and asserts:

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
  precedes its issue; the run ends with the last acknowledgement; and a
  centralized request's hop count is its route's length;
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
from repro.analysis.verify import (
    check_direct_path_property,
    check_fact_3_6,
    check_lemma_3_8,
    check_lemma_3_9,
    lemma_3_10_identity_gap,
)
from repro.core.fast_arrow import arrow_runner
from repro.core.fast_closed_loop import closed_loop_runner
from repro.core.queueing import verify_total_order
from repro.core.requests import RequestSchedule
from repro.errors import SimulationError
from repro.faults import run_arrow_faulted
from repro.graphs import complete_graph
from repro.graphs.shortest_paths import bfs_distances
from repro.monitors import ArrowMonitor
from repro.net.latency import (
    ExponentialCappedLatency,
    UniformLatency,
    UnitLatency,
    WeightLatency,
)
from repro.spanning.metrics import tree_diameter
from repro.spanning.tree import SpanningTree

# ----------------------------------------------------------------------
# trees and schedules
# ----------------------------------------------------------------------


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
    (``complete``: on K_n) with the centralized centre at ``center``.
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
    return (complete_graph(n) if complete else tree.to_graph()), tree


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
    monitored == unmonitored, one message per edge; the fast output and its
    monitor."""
    bare = run("fast", None)
    fast, events, monitor = _watched(run, "fast", tree, expected)
    message, message_events, _ = _watched(run, "message", tree, expected)
    _same_stream(events, message_events)
    assert fast == message, "results differ across engines"
    assert fast == bare, "a monitored run differs from an unmonitored one"
    _one_message_per_edge(tree.parent, events)
    return fast, monitor


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
        assert hops == tree.hop_distance(v, informed), f"request {rid}: {hops} hops"
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


def _open_properties(inst, tree, schedule, result, run):
    """Every message is one hop of a request's queue path, and the loop
    fires one event per initiation and per message stage; Section 3 or
    §3.8 where they apply.  Returns arrow/opt when Section 3 does."""
    hops = sum(result.hops)
    assert result.network_stats["messages_sent"] == hops, f"{hops} hops, other messages"
    stages = 2 if inst.service else 1
    _fires_exactly(lambda limit: run("fast", None, max_events=limit),
                   len(schedule) + stages * hops)
    if inst.service == 0.0:
        if inst.delay in SYNCHRONOUS:
            return _paper_properties(tree, schedule, result)
        if DELAYS[inst.delay].stochastic:
            _async_properties(tree, schedule, result)
    return None


def _fault_properties(schedule, result, report, monitor):
    """A degraded run leaves a legal configuration and balanced books."""
    assert report.final_violations == 0, f"{report.final_violations} illegal edges left"
    assert len(result.rids) + report.requests_lost == len(schedule), "books do not balance"
    assert monitor.lost == set(report.lost_rids), "monitor and report lose different rids"
    assert monitor.completed == set(result.rids), "monitor saw other completions"


def _closed_properties(result, inst, graph, run):
    """§5's loop discipline on any closed-loop result.

    Every processor issues its budget, the first request at t = 0 and
    each next one exactly ``think`` after the previous acknowledgement;
    no acknowledgement precedes its issue; the run ends with the last
    acknowledgement.  A centralized request travels the route to the
    centre: its hop count is that route's length.  Messages are the
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

    (result, report), monitor = _both_engines(run, tree, len(schedule))
    if report is not None:
        _fault_properties(schedule, result, report, monitor)
        return None
    return _open_properties(inst, tree, schedule, result, run)


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

    result, _ = _both_engines(run, tree, tree.num_nodes * inst.rpp)
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


_CHECKS = {"": _check_open, "arrow": _check_closed_arrow, "centralized": _check_closed_central}


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
    largest per-processor budget, for a closed loop); an n not in it is
    not enumerated.  ``times`` is the lattice requests, crashes and link
    windows sit on.  Every other field is enumerated as given; ``seeds``
    only for stochastic delays and loss.  Each generator is monotone in
    every field, so an axis that reaches at least as far contains this one.
    """

    requests: Mapping[int, int]
    times: tuple = (0.0, 1.0)
    services: tuple = (0.0, 0.5)
    delays: tuple = ("unit",)
    seeds: tuple = (0,)
    thinks: tuple = (0.0,)

    def contains(self, other: "Axis") -> bool:
        """True iff every instance ``other`` enumerates, this one does too."""
        return all(
            other.requests[n] <= self.requests.get(n, 0) for n in other.requests
        ) and all(
            set(getattr(other, f)) <= set(getattr(self, f))
            for f in ("times", "services", "delays", "seeds", "thinks")
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


def closed_central(axis: Axis) -> Iterator[Instance]:
    """Every tree as the graph, and K_n, × the centre at every node ×
    closed-loop settings."""
    for n in axis.requests:
        graphs = [(edges, False) for edges in labelled_trees(n)]
        if n > 2:
            graphs.append((graphs[0][0], True))
        for edges, complete in graphs:
            for center in range(n):
                for rpp, think, service, (delay, seed) in _loops(axis, n):
                    yield Instance(
                        edges, 0, delay=delay, seed=seed, service=service,
                        protocol="centralized", complete=complete, rpp=rpp,
                        think=think, center=center,
                    )


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
}

_ASYNC = ("uniform", "expcap")
_LOOPS = Axis({1: 3, 2: 3, 3: 3}, thinks=(0.0, 0.5, 1.0), delays=("unit", "directed"))
_LOOPS_FULL = dataclasses.replace(
    _LOOPS, delays=("unit", "directed", "uniform"), seeds=(0, 1)
)
_CONCURRENT = Axis({4: 1, 5: 1}, times=(0.0,), delays=("unit", "weight"))

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
