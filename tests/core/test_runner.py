"""Unit tests for the protocol runners' plumbing and validation."""

import pytest

from repro.core.requests import RequestSchedule
from repro.core.fast_closed_loop import run_centralized
from repro.core.message import run_arrow
from repro.errors import ScheduleError, TreeError
from repro.graphs import complete_graph
from repro.graphs.generators import path_graph
from repro.net.latency import UniformLatency
from repro.spanning import balanced_binary_overlay
from repro.spanning.tree import SpanningTree
from repro.workloads.schedules import poisson


def chain_tree(n):
    return SpanningTree([max(0, i - 1) for i in range(n)], root=0)


def test_bad_schedule_node_rejected():
    g = path_graph(3)
    with pytest.raises(ScheduleError):
        run_arrow(g, chain_tree(3), RequestSchedule([(9, 0.0)]))


def test_tree_must_span_graph_edges():
    g = path_graph(4)
    star = SpanningTree([0, 0, 0, 0], root=0)
    with pytest.raises(TreeError):
        run_arrow(g, star, RequestSchedule([(1, 0.0)]))


def test_empty_schedule_runs_cleanly():
    g = path_graph(3)
    res = run_arrow(g, chain_tree(3), RequestSchedule([]))
    assert res.total_latency == 0.0
    assert res.makespan == 0.0


def test_makespan_populated():
    g = path_graph(5)
    res = run_arrow(g, chain_tree(5), RequestSchedule([(4, 0.0)]))
    assert res.makespan == 4.0


def test_network_stats_reported():
    g = path_graph(5)
    res = run_arrow(g, chain_tree(5), RequestSchedule([(4, 0.0)]))
    assert res.network_stats["link_messages"] == 4


def test_tracer_records_protocol_messages():
    # on_event is the one way to watch a run, NetworkStats the one set of
    # counters (the test keeps its historical name).
    g = path_graph(4)
    events = []
    res = run_arrow(
        g,
        chain_tree(4),
        RequestSchedule([(3, 0.0)]),
        on_event=events.extend,
    )
    sends = [ev for ev in events if ev[0] == "send"]
    assert sends == [
        ("send", 0, 3, 2, 0.0),
        ("send", 0, 2, 1, 1.0),
        ("send", 0, 1, 0, 2.0),
    ]
    # Every message of an un-acknowledged arrow run is a queue message.
    assert res.network_stats["messages_sent"] == len(sends)
    assert res.network_stats["link_messages"] == len(sends)


def test_async_latency_model_completes_and_is_bounded():
    """§3.8: with delays <= 1, each request's latency is at most the tree
    distance to its (async-order) predecessor's issuer."""
    g = complete_graph(12)
    tree = balanced_binary_overlay(g, 0)
    sched = poisson(12, 60, rate=3.0, seed=5)
    res = run_arrow(g, tree, sched, latency=UniformLatency(0.2, 1.0), seed=7)
    assert len(res.completions) == 60
    for r in sched:
        rec = res.completions[r.rid]
        assert res.latency(r.rid) <= tree.distance(r.node, rec.informed_node) + 1e-9


def test_async_runs_deterministic_given_seed():
    g = complete_graph(10)
    tree = balanced_binary_overlay(g, 0)
    sched = poisson(10, 40, rate=2.0, seed=1)
    a = run_arrow(g, tree, sched, latency=UniformLatency(0.2, 1.0), seed=3)
    b = run_arrow(g, tree, sched, latency=UniformLatency(0.2, 1.0), seed=3)
    assert a.order == b.order
    assert a.total_latency == b.total_latency


def test_centralized_empty_schedule():
    g = complete_graph(3)
    res = run_centralized(g, 0, RequestSchedule([]))
    assert res.total_latency == 0.0


def test_service_time_delays_each_hop():
    """One request over a 4-hop chain: each hop adds latency + service."""
    g = path_graph(5)
    res = run_arrow(g, chain_tree(5), RequestSchedule([(4, 0.0)]), service_time=0.5)
    assert res.completions[0].completed_at == 4 * 1.5


# ----------------------------------------------------------------------
# every open- and closed-loop runner: one failure vocabulary
# ----------------------------------------------------------------------
def _lose_in_flat_loop(monkeypatch):
    """The flat open loops lose every request: ``_central_loop`` runs nothing."""
    from repro.core import fast_closed_loop

    monkeypatch.setattr(fast_closed_loop, "_central_loop", lambda *args: (0.0, 0))


def _lose_at(node_class):
    """A message-level protocol loses every request: nodes never initiate."""
    return lambda monkeypatch: monkeypatch.setattr(node_class, "initiate", lambda self, rid: None)


def _runners():
    """(label, lose(monkeypatch), call(**kw)) for every runner on K4 with four
    requests: message-level arrow, the flat baselines, both closed loops at
    message level, and the baselines' message oracles."""
    from open_loop_oracles import (
        AdaptivePointerNode,
        InformingCentralNode,
        run_adaptive_message,
        run_centralized_message,
    )

    from repro.core.fast_closed_loop import run_adaptive
    from repro.core.message import ArrowNode, CentralizedNode, closed_loop_arrow, closed_loop_centralized
    from repro.spanning import bfs_tree

    g = complete_graph(4)
    tree = bfs_tree(g, 0)
    sched = RequestSchedule([(v, 0.0) for v in range(4)])
    return [
        ("arrow", _lose_at(ArrowNode), lambda **kw: run_arrow(g, tree, sched, **kw)),
        ("centralized", _lose_in_flat_loop, lambda **kw: run_centralized(g, 0, sched, **kw)),
        ("adaptive", _lose_in_flat_loop, lambda **kw: run_adaptive(g, 0, sched, **kw)),
        (
            "closed loop",
            _lose_at(ArrowNode),
            lambda **kw: closed_loop_arrow(g, tree, requests_per_proc=1, **kw),
        ),
        (
            "closed loop",
            _lose_at(CentralizedNode),
            lambda **kw: closed_loop_centralized(g, 0, requests_per_proc=1, **kw),
        ),
        (
            "centralized",
            _lose_at(InformingCentralNode),
            lambda **kw: run_centralized_message(g, 0, sched, **kw),
        ),
        (
            "adaptive",
            _lose_at(AdaptivePointerNode),
            lambda **kw: run_adaptive_message(g, 0, sched, **kw),
        ),
    ]


@pytest.mark.parametrize("which", range(7))
def test_max_events_livelock_guard_on_every_runner(which):
    from repro.errors import SimulationError

    _, _, call = _runners()[which]
    with pytest.raises(
        SimulationError,
        match=r"^exceeded max_events=2; possible livelock in protocol code$",
    ):
        call(max_events=2)
    call(max_events=1000)  # a generous budget is not a livelock


@pytest.mark.parametrize("which", range(7))
def test_short_completion_count_on_every_runner(which, monkeypatch):
    """A protocol that loses requests is reported, never returned."""
    from repro.errors import ProtocolError

    label, lose, call = _runners()[which]
    lose(monkeypatch)
    who = label if label == "closed loop" else f"{label} run"
    with pytest.raises(ProtocolError, match=rf"^{who} completed 0 of 4 requests$"):
        call()


def test_bad_schedule_node_text_on_every_open_loop_runner():
    from repro.core.fast_closed_loop import run_adaptive
    from repro.spanning import bfs_tree

    g = complete_graph(4)
    bad = RequestSchedule([(1, 0.0), (9, 1.0)])
    for call in (
        lambda: run_arrow(g, bfs_tree(g, 0), bad),
        lambda: run_centralized(g, 0, bad),
        lambda: run_adaptive(g, 0, bad),
    ):
        with pytest.raises(
            ScheduleError, match=r"^request 1 at node 9 outside \[0, 4\)$"
        ):
            call()
