"""Property tests for closed-loop invariants, on both engines.

The §5 measurement loop has structural invariants that hold for *every*
graph, tree, latency model and loop parameterisation — independent of the
bit-identity contract checked by the differential suite:

* completion count: exactly ``num_procs * requests_per_proc`` requests
  complete, each processor owning exactly its budget;
* ack discipline: a processor's request k+1 is issued exactly
  ``think_time`` after the acknowledgement of request k was handled, and
  its first request is issued at t = 0;
* causality: no acknowledgement precedes its request's issue; every
  recorded latency is non-negative;
* think-time lower bound: every processor's serial chain alone forces
  ``makespan >= (requests_per_proc - 1) * think_time`` — a bound that
  grows monotonically in the think time on every instance;
* think-time monotonicity of the realised makespan, on a deterministic
  ladder of uncontended configurations.  (It is *not* a universal law:
  on highly contended topologies a longer think time can reshuffle the
  path-reversal dynamics into shorter queue paths — both engines agree
  on those dips, which the differential suite pins.)
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fast_closed_loop import closed_loop_runner
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    gnp_connected_graph,
    grid_graph,
    hypercube_graph,
    path_graph,
    star_graph,
)
from repro.net.latency import UniformLatency, UnitLatency
from repro.spanning.construct import random_spanning_tree

GRAPHS = {
    "path": lambda: path_graph(9),
    "cycle": lambda: cycle_graph(8),
    "complete": lambda: complete_graph(10),
    "star": lambda: star_graph(9),
    "grid": lambda: grid_graph(3, 3),
    "hypercube": lambda: hypercube_graph(3),
    "gnp": lambda: gnp_connected_graph(10, 0.4, seed=3),
}

ENGINES = ["fast", "message"]


def run_closed(protocol, engine, g, *, seed=0, **kw):
    runner = closed_loop_runner(protocol, engine)
    if protocol == "arrow":
        tree = random_spanning_tree(g, root=seed % g.num_nodes, seed=seed + 17)
        return runner(g, tree, **kw, seed=seed)
    return runner(g, seed % g.num_nodes, **kw, seed=seed)


def assert_closed_loop_invariants(res, n, rpp, think):
    total = n * rpp
    # Completion accounting.
    assert res.completions == total
    assert len(res.hops) == total
    assert len(res.latencies) == total
    assert len(res.issue_times) == len(res.ack_times) == len(res.owners) == total
    assert res.local_finds == sum(1 for h in res.hops if h == 0)
    assert all(lat >= 0.0 for lat in res.latencies)
    # Each processor issues exactly its budget.
    for p in range(n):
        rids = [rid for rid, owner in enumerate(res.owners) if owner == p]
        assert len(rids) == rpp
        # First request at t = 0; request k+1 exactly think_time after the
        # acknowledgement of request k was handled at p.
        assert res.issue_times[rids[0]] == 0.0
        for prev, nxt in zip(rids, rids[1:]):
            assert res.ack_times[prev] >= res.issue_times[prev]
            assert res.issue_times[nxt] == res.ack_times[prev] + think
        # The final ack lands inside the run.
        assert 0.0 <= res.ack_times[rids[-1]] <= res.makespan
    # The serial issue chain alone bounds the run length from below,
    # monotonically in the think time (1e-9 absorbs float re-association).
    if total > 0:
        assert res.makespan >= (rpp - 1) * think - 1e-9


@settings(max_examples=25, deadline=None)
@given(
    gname=st.sampled_from(sorted(GRAPHS)),
    protocol=st.sampled_from(["arrow", "centralized"]),
    engine=st.sampled_from(ENGINES),
    rpp=st.integers(1, 4),
    think=st.sampled_from([0.0, 0.25, 1.0]),
    service=st.sampled_from([0.0, 0.2]),
    stochastic=st.booleans(),
    seed=st.integers(0, 1_000),
)
def test_closed_loop_invariants_hypothesis(
    gname, protocol, engine, rpp, think, service, stochastic, seed
):
    g = GRAPHS[gname]()
    latency = UniformLatency(0.1, 1.0) if stochastic else UnitLatency()
    res = run_closed(
        protocol,
        engine,
        g,
        seed=seed,
        requests_per_proc=rpp,
        think_time=think,
        service_time=service,
        latency=latency,
    )
    assert_closed_loop_invariants(res, g.num_nodes, rpp, think)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("protocol", ["arrow", "centralized"])
def test_completions_scale_with_budget(engine, protocol):
    g = complete_graph(6)
    for rpp in (0, 1, 7):
        res = run_closed(
            protocol, engine, g, requests_per_proc=rpp, think_time=0.1
        )
        assert res.completions == 6 * rpp == res.total_requests


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "protocol,gname",
    [
        # Centralized dynamics are routing-invariant: monotone on every
        # topology.  Arrow is monotone where queue paths stay short
        # (low-diameter trees); on higher-diameter topologies a longer
        # think time can reshuffle path reversals into *shorter* paths —
        # a real effect both engines agree on — so those configurations
        # are covered by the lower-bound invariant instead.
        ("arrow", "complete"),
        ("arrow", "star"),
        ("centralized", "complete"),
        ("centralized", "grid"),
        ("centralized", "hypercube"),
    ],
)
def test_makespan_monotone_in_think_time(engine, protocol, gname):
    """Stretching the think time never shortens these closed loops.

    Deterministic ladder (unit latency, fixed seed): more local
    processing between operations only delays issues, completions, acks.
    """
    g = GRAPHS[gname]()
    spans = []
    for think in (0.0, 0.2, 0.5, 1.0, 2.0):
        res = run_closed(
            protocol,
            engine,
            g,
            requests_per_proc=4,
            think_time=think,
            service_time=0.1,
        )
        spans.append(res.makespan)
    assert spans == sorted(spans), spans


@pytest.mark.parametrize("engine", ENGINES)
def test_ack_spacing_is_exact_not_approximate(engine):
    """The think-time offset is exact float arithmetic, not a tolerance."""
    g = complete_graph(5)
    think = 0.3  # not exactly representable: exactness must still hold
    res = run_closed(
        "arrow", engine, g, requests_per_proc=3, think_time=think
    )
    for p in range(5):
        rids = [rid for rid, owner in enumerate(res.owners) if owner == p]
        for prev, nxt in zip(rids, rids[1:]):
            assert res.issue_times[nxt] == res.ack_times[prev] + think
