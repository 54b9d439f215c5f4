"""Differential suite: the fast closed loops vs the message simulator.

The fast closed-loop engine's contract is
*bit-identical* output: same makespan, per-request hops, latencies,
issue/ack times, owners, message totals and tie-breaking — on every
graph family, spanning-tree strategy, latency model and (think_time,
service_time, requests_per_proc) point the drivers support, for both the
arrow and the centralized protocol.  ``tests/small_models.py`` checks
it on every small closed loop it enumerates (up to 3 processors × 3
requests, raw event streams and a deep monitor included); this file
samples the sizes beyond the corpus.  Every instance runs on both
engines and asserts they agree.  The suite enforces the contract the
same three ways as the open-loop differential suite
(``test_fast_arrow_differential.py``):

* a seeded cross-product grid (every graph generator × seeds × both
  protocols, plus tree-strategy, latency-model and loop-dynamics grids —
  over 150 instances) with randomized spanning trees;
* Hypothesis property tests drawing instance shape, tree strategy,
  latency model, think/service times and budgets freely;
* pinned regression cases for tie-heavy instances (every closed loop
  starts with an all-processors-at-t=0 tie storm), where deterministic
  tie-breaking is the whole story.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fast_closed_loop import (
    closed_loop_arrow_fast,
    closed_loop_centralized_fast,
    closed_loop_runner,
)
from repro.graphs.generators import (
    balanced_binary_tree_graph,
    caterpillar_graph,
    complete_graph,
    cycle_graph,
    gnp_connected_graph,
    grid_graph,
    hypercube_graph,
    lollipop_graph,
    path_graph,
    random_geometric_graph,
    star_graph,
    torus_graph,
)
from repro.graphs.graph import Graph
from repro.net.latency import UniformLatency, UnitLatency, WeightLatency
from repro.spanning.construct import (
    balanced_binary_overlay,
    bfs_tree,
    mst_prim,
    random_spanning_tree,
    star_overlay,
)
from repro.workloads.closed_loop import closed_loop_arrow, closed_loop_centralized
from latency_models import ExponentialCappedLatency, ScaledWeightLatency

#: Every repro.graphs.generators family, at small sizes.
GRAPH_FAMILIES = {
    "path": lambda seed: path_graph(12),
    "cycle": lambda seed: cycle_graph(11),
    "star": lambda seed: star_graph(13),
    "complete": lambda seed: complete_graph(14),
    "binary_tree": lambda seed: balanced_binary_tree_graph(15),
    "grid": lambda seed: grid_graph(4, 4),
    "torus": lambda seed: torus_graph(3, 4),
    "hypercube": lambda seed: hypercube_graph(4),
    "geometric": lambda seed: random_geometric_graph(14, 0.45, seed=seed),
    "gnp": lambda seed: gnp_connected_graph(14, 0.3, seed=seed),
    "caterpillar": lambda seed: caterpillar_graph(5, 2),
    "lollipop": lambda seed: lollipop_graph(6, 6),
}

TREE_BUILDERS = {
    "bfs": lambda g, seed: bfs_tree(g, seed % g.num_nodes),
    "mst": lambda g, seed: mst_prim(g, seed % g.num_nodes),
    "binary": lambda g, seed: balanced_binary_overlay(g, 0),
    "star": lambda g, seed: star_overlay(g, 0),
    "random": lambda g, seed: random_spanning_tree(
        g, seed % g.num_nodes, seed=seed + 17
    ),
}

#: (think_time, service_time) points indexed by seed in the main grid.
DYNAMICS = [(0.0, 0.0), (0.4, 0.1), (1.0, 0.0), (0.25, 0.25)]

SEEDS = [0, 1, 2, 3]

#: Every comparing field of ClosedLoopResult, for diagnosable mismatches.
FIELDS = (
    "protocol",
    "num_procs",
    "requests_per_proc",
    "makespan",
    "completions",
    "hops",
    "local_finds",
    "messages_sent",
    "issue_times",
    "ack_times",
    "owners",
    "latencies",
)


def assert_identical(a, b):
    """Field-for-field equality of two ClosedLoopResults."""
    for f in FIELDS:
        assert getattr(a, f) == getattr(b, f), f"field {f!r} differs"
    # The dataclass eq must agree.
    assert a == b


def run_both_arrow(g, tree, **kw):
    """The (message, fast) result pair for the call sites' asserts."""
    a = closed_loop_arrow(g, tree, **kw)
    b = closed_loop_arrow_fast(g, tree, **kw)
    return a, b


def run_both_centralized(g, center, **kw):
    """Same pair for the centralized protocol."""
    a = closed_loop_centralized(g, center, **kw)
    b = closed_loop_centralized_fast(g, center, **kw)
    return a, b


@pytest.mark.parametrize("gname", sorted(GRAPH_FAMILIES))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("protocol", ["arrow", "centralized"])
def test_parity_grid(gname, seed, protocol):
    """96 randomized instances: every generator × seeds × both protocols."""
    g = GRAPH_FAMILIES[gname](seed)
    think, service = DYNAMICS[seed % len(DYNAMICS)]
    kw = dict(
        requests_per_proc=3,
        think_time=think,
        service_time=service,
        seed=seed,
    )
    if protocol == "arrow":
        tree = random_spanning_tree(g, root=seed % g.num_nodes, seed=seed + 17)
        a, b = run_both_arrow(g, tree, **kw)
    else:
        a, b = run_both_centralized(g, seed % g.num_nodes, **kw)
    assert_identical(a, b)


@pytest.mark.parametrize("tname", sorted(TREE_BUILDERS))
@pytest.mark.parametrize("think,service", [(0.0, 0.0), (0.3, 0.15)])
def test_parity_tree_strategies(tname, think, service):
    """Every spanning-tree construction drives the arrow loop identically."""
    g = gnp_connected_graph(13, 0.35, seed=5)
    if tname in ("binary", "star"):  # overlays need a complete host graph
        g = complete_graph(13)
    tree = TREE_BUILDERS[tname](g, 3)
    kw = dict(requests_per_proc=4, think_time=think, service_time=service, seed=2)
    a, b = run_both_arrow(g, tree, **kw)
    assert_identical(a, b)


@pytest.mark.parametrize(
    "latency,service",
    [
        (UnitLatency(), 0.15),
        (WeightLatency(), 0.0),
        (ScaledWeightLatency(2.5), 0.0),
        (UniformLatency(0.2, 1.0), 0.0),
        (UniformLatency(0.2, 1.0), 0.3),
        (ExponentialCappedLatency(), 0.1),
    ],
)
@pytest.mark.parametrize("think", [0.0, 0.7])
@pytest.mark.parametrize("protocol", ["arrow", "centralized"])
def test_parity_latency_models(latency, service, think, protocol):
    """Latency-model × service × think coverage, incl. stochastic models.

    Stochastic models work because the fast engine replays the Network's
    named RNG stream draw-for-draw in kernel event order — including the
    per-edge draws of routed ``queue_reply``/``creq`` paths.
    """
    g = grid_graph(4, 4)
    kw = dict(
        requests_per_proc=4,
        latency=latency,
        seed=11,
        service_time=service,
        think_time=think,
    )
    if protocol == "arrow":
        tree = bfs_tree(g, 5)
        a, b = run_both_arrow(g, tree, **kw)
    else:
        a, b = run_both_centralized(g, 5, **kw)
    assert_identical(a, b)


@pytest.mark.parametrize("think", [0.0, 0.5, 1.25])
@pytest.mark.parametrize("service", [0.0, 0.2])
@pytest.mark.parametrize("rpp", [1, 5])
@pytest.mark.parametrize("protocol", ["arrow", "centralized"])
def test_parity_loop_dynamics(think, service, rpp, protocol):
    """The (think_time, service_time, requests_per_proc) grid."""
    g = complete_graph(9)
    kw = dict(
        requests_per_proc=rpp, think_time=think, service_time=service, seed=3
    )
    if protocol == "arrow":
        tree = balanced_binary_overlay(g, 0)
        a, b = run_both_arrow(g, tree, **kw)
    else:
        a, b = run_both_centralized(g, 0, **kw)
    assert_identical(a, b)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    gname=st.sampled_from(sorted(GRAPH_FAMILIES)),
    tname=st.sampled_from(sorted(TREE_BUILDERS)),
    rpp=st.integers(1, 4),
    think=st.sampled_from([0.0, 0.0, 0.3, 1.0]),
    service=st.sampled_from([0.0, 0.0, 0.2]),
    stochastic=st.booleans(),
    protocol=st.sampled_from(["arrow", "centralized"]),
)
def test_parity_hypothesis(
    seed, gname, tname, rpp, think, service, stochastic, protocol
):
    """Property form: any combination of the above must stay identical."""
    g = GRAPH_FAMILIES[gname](seed % 50)
    latency = UniformLatency(0.1, 1.0) if stochastic else UnitLatency()
    kw = dict(
        requests_per_proc=rpp,
        latency=latency,
        seed=seed % 7,
        service_time=service,
        think_time=think,
    )
    if protocol == "arrow":
        if tname in ("binary", "star"):  # overlays need a complete host graph
            g = complete_graph(g.num_nodes)
        tree = TREE_BUILDERS[tname](g, seed)
        a, b = run_both_arrow(g, tree, **kw)
    else:
        a, b = run_both_centralized(g, seed % g.num_nodes, **kw)
    assert_identical(a, b)


# ----------------------------------------------------------------------
# pinned tie-heavy regressions
# ----------------------------------------------------------------------
def test_pinned_t0_tie_storm_on_path():
    """All processors fire at t=0 on a path: maximal simultaneity.

    Every closed loop *starts* as a tie storm (the driver schedules all
    first issues at t=0), so this exercises exactly the kernel's
    ``(time, seq)`` tie-breaking that the fast engine replays.
    """
    n = 17
    g = path_graph(n)
    tree = bfs_tree(g, root=n // 2)
    a, b = run_both_arrow(g, tree, requests_per_proc=3)
    assert_identical(a, b)
    # Pin the realised aggregate so silent tie-break changes are caught.
    assert b.completions == 51
    assert b.hops[:5] == a.hops[:5]


def test_pinned_star_center_contention():
    """Star: every leaf's first queue message collides at the centre at t=1."""
    g = star_graph(12)
    tree = bfs_tree(g, root=0)
    a, b = run_both_arrow(g, tree, requests_per_proc=4, service_time=0.2)
    assert_identical(a, b)


def test_pinned_centralized_center_pileup():
    """All creqs land at the centre simultaneously; service serialises them."""
    g = complete_graph(14)
    a, b = run_both_centralized(
        g, 0, requests_per_proc=5, service_time=0.25, think_time=0.0
    )
    assert_identical(a, b)
    # The centre handles every request: linear pile-up is visible.
    assert a.makespan >= 14 * 5 * 0.25 - 1e-9


def test_pinned_integer_latency_ties():
    """Integer-weighted edges + unit think times: everything collides."""
    from repro.graphs.graph import Graph

    base = grid_graph(3, 4)
    g = Graph(12)
    for i, (u, v, _) in enumerate(base.edges()):
        g.add_edge(u, v, float(1 + i % 3))
    tree = mst_prim(g, 0)
    kw = dict(
        requests_per_proc=3, latency=WeightLatency(), think_time=1.0, seed=4
    )
    a, b = run_both_arrow(g, tree, **kw)
    assert_identical(a, b)
    c, d = run_both_centralized(g, 6, **kw)
    assert_identical(c, d)


def test_pinned_two_processor_ping_pong():
    """n=2: the sink alternates every operation; acks and queues interleave."""
    g = complete_graph(2)
    tree = balanced_binary_overlay(g, 0)
    a, b = run_both_arrow(g, tree, requests_per_proc=20, think_time=1.0)
    assert_identical(a, b)
    assert a.completions == 40


def test_pinned_unit_think_ack_queue_collisions():
    """think_time == link latency: re-issues collide with in-flight queues."""
    g = hypercube_graph(3)
    tree = bfs_tree(g, 0)
    a, b = run_both_arrow(g, tree, requests_per_proc=6, think_time=1.0)
    assert_identical(a, b)


# ----------------------------------------------------------------------
# error parity
# ----------------------------------------------------------------------
def test_max_events_matches_message_driver():
    from repro.errors import SimulationError

    g = path_graph(10)
    tree = bfs_tree(g, 0)
    kw = dict(requests_per_proc=2, think_time=0.5)
    full = closed_loop_arrow(g, tree, **kw)
    # Events: n initial issues + per-message arrivals + think re-issues.
    for limit in (10, 50, 10_000):
        outcomes = []
        for fn in (closed_loop_arrow, closed_loop_arrow_fast):
            try:
                fn(g, tree, max_events=limit, **kw)
                outcomes.append("ok")
            except SimulationError:
                outcomes.append("raised")
        assert len(set(outcomes)) == 1, (limit, outcomes)
    assert full.completions == 20


def _split_graph():
    """Two components, {0, 1, 2} (a path) and {3, 4}."""
    return Graph.from_columns(5, [0, 1, 3], [1, 2, 4], 1.0)


def _outcome(run):
    """``"ok"``, or the error a run raises: its type name and text."""
    from repro.errors import NetworkError, SimulationError

    try:
        run()
    except (NetworkError, SimulationError) as exc:
        return type(exc).__name__, str(exc)
    return "ok"


@pytest.mark.parametrize(
    "latency", [UnitLatency(), UniformLatency(0.2, 1.0)], ids=["unit", "uniform"]
)
@pytest.mark.parametrize("center", [0, 2, 4])
def test_unreachable_center_raises_the_message_drivers_error_at_its_event(center, latency):
    """A creq with no route to the centre raises the message driver's
    NetworkError, from the event that sends it: the t = 0 issues run in
    node order, so the first node off the centre's component raises at
    event ``first + 1``, and every ``max_events`` below that ends the run
    in the livelock guard first."""
    g = _split_graph()
    kw = dict(requests_per_proc=2, think_time=0.5, latency=latency)
    first = 3 if center < 3 else 0
    raised = ("NetworkError", f"node {center} unreachable from {first}")
    assert _outcome(lambda: closed_loop_centralized(g, center, **kw)) == raised
    for limit in (None, *range(6)):
        got = _outcome(lambda: closed_loop_centralized_fast(g, center, max_events=limit, **kw))
        if limit is None or limit > first:
            assert got == raised, limit
        else:
            assert got[0] == "SimulationError", limit


def test_no_requests_route_nothing_on_a_disconnected_graph():
    g = _split_graph()
    a, b = run_both_centralized(g, 0, requests_per_proc=0)
    assert_identical(a, b)
    assert b.completions == b.messages_sent == 0


#: (requests_per_proc, think_time, service_time) of the threshold test,
#: and the thresholds: arrow, then centralized (either centre).
THRESHOLD_SETTINGS = [
    (2, 0.5, 0.0, 57, 58),
    (3, 0.0, 0.3, 118, 124),
    (3, 0.5, 0.2, 142, 144),
]


def smallest_completing_limit(run):
    """Binary-search the least ``max_events`` with which ``run`` completes."""
    from repro.errors import SimulationError

    lo, hi = 0, 10_000  # run(lo) raises, run(hi) completes
    run(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            run(mid)
            hi = mid
        except SimulationError:
            lo = mid
    return hi


@pytest.mark.parametrize("rpp,think,service,arrow,centralized", THRESHOLD_SETTINGS)
@pytest.mark.parametrize("protocol", ["arrow", "centralized@0", "centralized@4"])
def test_max_events_threshold_matches_message_driver(
    protocol, rpp, think, service, arrow, centralized
):
    """Both engines fire the same number of events, to the exact event.

    The least ``max_events`` that lets a run complete is its event count:
    issues, arrivals, dispatches and think-time re-issues.  A loop that
    skips, merges or adds an event moves it.
    """
    g = path_graph(10)
    kw = dict(requests_per_proc=rpp, think_time=think, service_time=service)
    if protocol == "arrow":
        tree = bfs_tree(g, 0)
        engines = [
            lambda limit, fn=fn: fn(g, tree, max_events=limit, **kw)
            for fn in (closed_loop_arrow, closed_loop_arrow_fast)
        ]
    else:
        center = int(protocol.split("@")[1])
        engines = [
            lambda limit, fn=fn: fn(g, center, max_events=limit, **kw)
            for fn in (closed_loop_centralized, closed_loop_centralized_fast)
        ]
    message, fast = map(smallest_completing_limit, engines)
    assert fast == message == (arrow if protocol == "arrow" else centralized)


def test_parity_at_fig10_scale():
    """The SP2 cell of Fig. 10 (K_32, binary overlay, service = think =
    0.1), both protocols: deep heaps and float-drifted near-ties that
    the small-model corpus (at most 3 processors) never builds."""
    g = complete_graph(32)
    kw = dict(requests_per_proc=10, service_time=0.1, think_time=0.1)
    a, b = run_both_arrow(g, balanced_binary_overlay(g, 0), **kw)
    assert_identical(a, b)
    assert b.completions == 320
    c, d = run_both_centralized(g, 0, **kw)
    assert_identical(c, d)
    assert d.completions == 320


def test_closed_loop_runner_resolves_and_rejects():
    from repro.workloads.closed_loop import (
        closed_loop_arrow as msg_arrow,
        closed_loop_centralized as msg_central,
    )

    assert closed_loop_runner("arrow", "fast") is closed_loop_arrow_fast
    assert closed_loop_runner("arrow", "message") is msg_arrow
    assert closed_loop_runner("centralized", "fast") is closed_loop_centralized_fast
    assert closed_loop_runner("centralized", "message") is msg_central
    with pytest.raises(ValueError):
        closed_loop_runner("arrow", "open")
    # The retired numpy engine is rejected by name, not aliased.
    with pytest.raises(ValueError, match="'fast' or 'message'"):
        closed_loop_runner("arrow", "batch")
    with pytest.raises(ValueError):
        closed_loop_runner("ivy", "fast")
