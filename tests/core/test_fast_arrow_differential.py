"""Differential suite: the fast engine vs the message simulator.

The fast engine's contract is *bit-identical* output:
same completions (order, predecessors, hop counts, times), same
makespan, same message counters, same tie-breaking — on every graph
family, spanning-tree strategy, schedule family and latency model the
runner supports.  ``tests/small_models.py`` checks it, with raw event
streams and a deep monitor, on every small instance it enumerates (trees
up to n = 6).  This file samples the sizes beyond the corpus: every
instance here runs on both engines and asserts they agree, three ways:

* a seeded cross-product grid (every graph generator × every schedule
  family × several seeds — well over 200 instances) with randomized
  spanning trees;
* Hypothesis property tests drawing instance shape, tree strategy,
  latency model and service time freely;
* pinned regression cases for tie-heavy one-shot instances, where
  the deterministic tie-breaking is the whole story, and a grid-scale
  run whose per-link message chains are long.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fast_arrow import run_arrow_fast
from repro.core.queueing import verify_total_order
from repro.core.requests import RequestSchedule
from repro.core.runner import run_arrow
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
from repro.monitors import ArrowMonitor
from repro.net.latency import UniformLatency, UnitLatency, WeightLatency
from repro.spanning.construct import (
    balanced_binary_overlay,
    bfs_tree,
    mst_prim,
    random_spanning_tree,
)
from repro.workloads.schedules import (
    bursty,
    hotspot,
    one_shot,
    poisson,
    random_times,
    sequential,
)
from latency_models import ExponentialCappedLatency, ScaledWeightLatency
from small_models import DirectedLatency

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

#: All five schedule families (plus the uniform-random integration one).
SCHEDULE_FAMILIES = {
    "one_shot": lambda n, seed: one_shot(list(range(n))),
    "sequential": lambda n, seed: sequential(list(range(n)), gap=3.0),
    "poisson": lambda n, seed: poisson(n, 4 * n, rate=0.5 * n, seed=seed),
    "bursty": lambda n, seed: bursty(n, 3, 2 * n, 2.0, 5.0, seed=seed),
    "hotspot": lambda n, seed: hotspot(n, 4 * n, 0.5 * n, [0, 1], seed=seed),
    "random": lambda n, seed: random_times(n, 3 * n, horizon=2.0 * n, seed=seed),
}

SEEDS = [0, 1, 2]


def assert_identical(a, b):
    """Field-for-field equality of two RunResults."""
    assert a.completions == b.completions
    assert list(a.completions) == list(b.completions)  # completion order
    assert a.makespan == b.makespan
    assert a.network_stats == b.network_stats
    assert verify_total_order(a) == verify_total_order(b)


def run_engines(g, tree, sched, **kw):
    """Run both engines; return (message, fast) results."""
    return (
        run_arrow(g, tree, sched, **kw),
        run_arrow_fast(g, tree, sched, **kw),
    )


def assert_parity(g, tree, sched, **kw):
    """Both engines must agree; returns the message result."""
    a, b = run_engines(g, tree, sched, **kw)
    assert_identical(a, b)
    return a


@pytest.mark.parametrize("gname", sorted(GRAPH_FAMILIES))
@pytest.mark.parametrize("sname", sorted(SCHEDULE_FAMILIES))
@pytest.mark.parametrize("seed", SEEDS)
def test_differential_grid(gname, sname, seed):
    """216 randomized instances (×2 engines): generators × schedules."""
    g = GRAPH_FAMILIES[gname](seed)
    tree = random_spanning_tree(g, root=seed % g.num_nodes, seed=seed + 17)
    sched = SCHEDULE_FAMILIES[sname](g.num_nodes, seed)
    assert_parity(g, tree, sched)


@pytest.mark.parametrize(
    "latency,service_time",
    [
        (UnitLatency(), 0.15),
        (WeightLatency(), 0.0),
        (ScaledWeightLatency(2.5), 0.0),
        (UniformLatency(0.2, 1.0), 0.0),
        (UniformLatency(0.2, 1.0), 0.3),
        (ExponentialCappedLatency(), 0.1),
    ],
)
@pytest.mark.parametrize("tree_builder", [bfs_tree, mst_prim])
def test_differential_latency_models(latency, service_time, tree_builder):
    """Latency-model × service-time coverage, incl. stochastic models.

    Stochastic models work because the fast engine replays the Network's
    named RNG stream draw-for-draw in kernel event order.  Neither engine
    clamps a link's deliveries to its send order, so both runs are also
    watched: the monitor's one-arrow-per-edge check holds beyond the
    small-model corpus's sizes, under stochastic delays too.
    """
    g = grid_graph(4, 5)
    tree = tree_builder(g, 0)
    sched = poisson(20, 80, rate=8.0, seed=5)
    kw = dict(latency=latency, seed=11, service_time=service_time)
    monitors = [ArrowMonitor(tree), ArrowMonitor(tree)]
    a = run_arrow(g, tree, sched, on_event=monitors[0], **kw)
    b = run_arrow_fast(g, tree, sched, on_event=monitors[1], **kw)
    assert_identical(a, b)
    for monitor in monitors:
        monitor.finalize(expected=len(sched))
        assert monitor.violation_count == 0


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    gname=st.sampled_from(sorted(GRAPH_FAMILIES)),
    sname=st.sampled_from(sorted(SCHEDULE_FAMILIES)),
    tree_kind=st.sampled_from(["random", "bfs", "mst", "binary"]),
    service_time=st.sampled_from([0.0, 0.0, 0.2]),
    stochastic=st.booleans(),
)
def test_differential_hypothesis(seed, gname, sname, tree_kind, service_time, stochastic):
    """Property form: any combination of the above must stay identical."""
    g = GRAPH_FAMILIES[gname](seed % 50)
    if tree_kind == "random":
        tree = random_spanning_tree(g, root=seed % g.num_nodes, seed=seed)
    elif tree_kind == "bfs":
        tree = bfs_tree(g, root=seed % g.num_nodes)
    elif tree_kind == "mst":
        tree = mst_prim(g, root=seed % g.num_nodes)
    else:
        tree = balanced_binary_overlay(complete_graph(g.num_nodes), root=0)
        g = complete_graph(g.num_nodes)
    sched = SCHEDULE_FAMILIES[sname](g.num_nodes, seed % 100)
    latency = UniformLatency(0.1, 1.0) if stochastic else UnitLatency()
    kw = dict(latency=latency, seed=seed % 7, service_time=service_time)
    assert_parity(g, tree, sched, **kw)


# ----------------------------------------------------------------------
# pinned tie-heavy regressions
# ----------------------------------------------------------------------
def test_pinned_one_shot_tie_storm_on_path():
    """All nodes fire at t=0 on a path: maximal simultaneity everywhere."""
    n = 17
    g = path_graph(n)
    tree = bfs_tree(g, root=n // 2)
    sched = one_shot(list(range(n)))
    a, b = run_engines(g, tree, sched)
    assert_identical(a, b)
    # Pin the realised order so silent tie-break changes are caught.
    assert verify_total_order(b) == verify_total_order(a)
    assert b.completions[0].predecessor == a.completions[0].predecessor


def test_pinned_one_shot_on_star_center_contention():
    """Star: every leaf's queue message collides at the centre at t=1."""
    g = star_graph(12)
    tree = bfs_tree(g, root=0)
    sched = one_shot(list(range(1, 12)))
    assert_parity(g, tree, sched)


def test_pinned_duplicate_node_time_requests():
    """Many requests from one node at one instant (pure local-find chain)."""
    g = complete_graph(6)
    tree = balanced_binary_overlay(g, 0)
    sched = RequestSchedule([(3, 1.0)] * 9 + [(2, 1.0)] * 3)
    a = assert_parity(g, tree, sched)
    assert sum(1 for r in a.completions.values() if r.hops == 0) >= 9


def test_pinned_integer_latency_ties():
    """Integer-weighted edges + integer issue times: everything collides."""
    g = grid_graph(3, 4)
    # Reweight by rebuilding: integer weights 1..3 on the same topology.
    from repro.graphs.graph import Graph

    g2 = Graph(12)
    for i, (u, v, _) in enumerate(g.edges()):
        g2.add_edge(u, v, float(1 + i % 3))
    tree = mst_prim(g2, 0)
    sched = RequestSchedule([(v, float(t)) for t in range(4) for v in range(12)])
    kw = dict(latency=WeightLatency())
    assert_parity(g2, tree, sched, **kw)


def test_pinned_hop_heavy_path_at_grid_scale():
    """4,000 requests on a 128-node path: long message chains per link."""
    g = path_graph(128)
    tree = bfs_tree(g, 0)
    sched = poisson(128, 4_000, rate=4.0, seed=2)
    a = assert_parity(g, tree, sched)
    assert len(a.completions) == 4_000
    assert a.network_stats["messages_sent"] == 15_529


def test_pinned_fig11_poisson_on_k64():
    """A Fig. 11 cell (K_64, binary overlay, service 0.1, rate 1 per
    node): thousands of initiations fall due while the loop holds an
    event over a heap of dozens, at float-drifted times."""
    g = complete_graph(64)
    tree = balanced_binary_overlay(g, 0)
    sched = poisson(64, 64 * 60, rate=64.0, seed=1)
    a = assert_parity(g, tree, sched, service_time=0.1)
    assert len(a.completions) == 64 * 60


def test_differential_direction_dependent_deterministic_model():
    """Deterministic models may depend on (src, dst); parity must hold."""
    g = grid_graph(4, 4)
    tree = bfs_tree(g, root=5)
    sched = poisson(16, 60, rate=6.0, seed=3)
    kw = dict(latency=DirectedLatency())
    a = assert_parity(g, tree, sched, **kw)
    # The asymmetry must actually be visible, or this test checks nothing.
    sym = run_arrow_fast(g, tree, sched)
    assert sym.makespan != a.makespan


# ----------------------------------------------------------------------
# run-function behaviour
# ----------------------------------------------------------------------
def test_engine_is_reusable_across_runs():
    """Runs on one (graph, tree) pair share no state: each matches run_arrow."""
    g = complete_graph(10)
    tree = balanced_binary_overlay(g, 0)
    for seed in range(3):
        sched = poisson(10, 50, rate=5.0, seed=seed)
        assert_parity(g, tree, sched)
    # Repeating the same schedule gives the same answer (no state leak).
    sched = poisson(10, 50, rate=5.0, seed=0)
    assert_identical(run_arrow_fast(g, tree, sched), run_arrow_fast(g, tree, sched))


def test_engine_rejects_non_spanning_tree():
    from repro.errors import GraphError
    from repro.spanning.tree import SpanningTree

    g = path_graph(5)
    bad = SpanningTree([0, 0, 0, 0, 0], root=0)  # star edges absent from path
    with pytest.raises(GraphError):
        run_arrow_fast(g, bad, one_shot([1, 2]))


def test_engine_max_events_matches_runner():
    from repro.errors import SimulationError

    g = path_graph(20)
    tree = bfs_tree(g, 0)
    sched = one_shot(list(range(20)))
    full = run_arrow(g, tree, sched)
    needed = full.network_stats["messages_sent"] + len(sched)
    for limit in (needed, needed - 1, 5):
        outcomes = []
        for fn in (run_arrow, run_arrow_fast):
            try:
                fn(g, tree, sched, max_events=limit)
                outcomes.append("ok")
            except SimulationError:
                outcomes.append("raised")
        assert len(set(outcomes)) == 1, (limit, outcomes)
