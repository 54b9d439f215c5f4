"""Unit tests for the closed-loop driver (§5 measurement loop)."""

import math

import pytest

from repro.core.engines import ENGINES
from repro.core.fast_closed_loop import closed_loop_runner
from repro.errors import NetworkError, ScheduleError, SimulationError
from repro.graphs import complete_graph
from repro.graphs.graph import Graph
from repro.spanning import balanced_binary_overlay
from repro.workloads.closed_loop import closed_loop_arrow, closed_loop_centralized


@pytest.fixture
def k8():
    g = complete_graph(8)
    return g, balanced_binary_overlay(g, root=0)


def test_all_requests_complete(k8):
    g, tree = k8
    res = closed_loop_arrow(g, tree, requests_per_proc=20)
    assert res.completions == 8 * 20
    assert len(res.hops) == 160
    assert res.total_requests == 160


def test_makespan_positive_and_bounded(k8):
    g, tree = k8
    res = closed_loop_arrow(g, tree, requests_per_proc=10, think_time=0.1)
    assert 0 < res.makespan
    # Each op takes at most diameter + reply + think: crude sanity ceiling.
    assert res.makespan < 10 * (6 + 1 + 0.1) * 8


def test_centralized_two_messages_per_remote_op(k8):
    g, _ = k8
    res = closed_loop_centralized(g, 0, requests_per_proc=10)
    remote_ops = 7 * 10  # processors other than the centre
    local_ops = 10
    assert res.completions == 80
    assert res.messages_sent == 2 * remote_ops + local_ops


def test_arrow_mean_hops_below_tree_diameter(k8):
    g, tree = k8
    res = closed_loop_arrow(g, tree, requests_per_proc=40, think_time=0.1)
    assert res.mean_hops < 4.0  # diameter of the 8-node binary overlay
    assert 0.0 <= res.local_find_fraction <= 1.0


def test_think_time_slows_the_loop(k8):
    g, tree = k8
    fast = closed_loop_arrow(g, tree, requests_per_proc=15, think_time=0.0)
    slow = closed_loop_arrow(g, tree, requests_per_proc=15, think_time=2.0)
    assert slow.makespan > fast.makespan


def test_deterministic_given_seed(k8):
    g, tree = k8
    a = closed_loop_arrow(g, tree, requests_per_proc=12, seed=5)
    b = closed_loop_arrow(g, tree, requests_per_proc=12, seed=5)
    assert a.makespan == b.makespan
    assert a.hops == b.hops


def test_single_processor_degenerate_case():
    g = complete_graph(2)
    tree = balanced_binary_overlay(g, 0)
    res = closed_loop_arrow(g, tree, requests_per_proc=5)
    assert res.completions == 10


def test_centralized_saturates_with_service_time():
    """The centre's utilisation drives the §5 linear slowdown."""
    small = complete_graph(8)
    big = complete_graph(32)
    r_small = closed_loop_centralized(
        small, 0, requests_per_proc=30, service_time=0.2, think_time=0.2
    )
    r_big = closed_loop_centralized(
        big, 0, requests_per_proc=30, service_time=0.2, think_time=0.2
    )
    # 4x the processors -> substantially more total time (near-linear).
    assert r_big.makespan > 2.0 * r_small.makespan


def test_arrow_scales_sublinearly_with_system_size():
    small = complete_graph(8)
    big = complete_graph(32)
    t_small = balanced_binary_overlay(small, 0)
    t_big = balanced_binary_overlay(big, 0)
    r_small = closed_loop_arrow(
        small, t_small, requests_per_proc=30, service_time=0.2, think_time=0.2
    )
    r_big = closed_loop_arrow(
        big, t_big, requests_per_proc=30, service_time=0.2, think_time=0.2
    )
    assert r_big.makespan < 2.0 * r_small.makespan


# ----------------------------------------------------------------------
# argument validation, identical on all four drivers
# ----------------------------------------------------------------------
DRIVERS = [
    pytest.param(closed_loop_runner(protocol, engine), protocol, id=f"{protocol}-{engine}")
    for protocol in ("arrow", "centralized")
    for engine in ENGINES
]


def _topology(k8, protocol):
    g, tree = k8
    return (g, tree) if protocol == "arrow" else (g, 0)


@pytest.mark.parametrize("run, protocol", DRIVERS)
@pytest.mark.parametrize(
    "bad", [{"think_time": -1.0}, {"requests_per_proc": -2}]
)
def test_out_of_range_budgets_rejected(k8, run, protocol, bad):
    (name, value), = bad.items()
    kw = {"requests_per_proc": 3, **bad}
    finite = "finite and " if name == "think_time" else ""
    with pytest.raises(ScheduleError, match=rf"{name} must be {finite}>= 0, got {value}"):
        run(*_topology(k8, protocol), **kw)


@pytest.mark.parametrize("run, protocol", DRIVERS)
def test_negative_service_time_rejected(k8, run, protocol):
    # NaN used to run as 0 on the fast loops and fail mid-run on the
    # message ones; a NaN think time ran as 0 on both.
    for bad in (-0.5, math.nan, math.inf):
        text = f"must be finite and >= 0, got {bad}$"
        with pytest.raises(NetworkError, match="^service_time " + text):
            run(*_topology(k8, protocol), requests_per_proc=3, service_time=bad)
        with pytest.raises(ScheduleError, match="^think_time " + text):
            run(*_topology(k8, protocol), requests_per_proc=3, think_time=bad)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("center", [9, -1])
def test_out_of_range_center_rejected(engine, center):
    # One exception type and text on both engines, before anything runs.
    run = closed_loop_runner("centralized", engine)
    with pytest.raises(
        NetworkError, match=rf"^center {center} out of range for 4 nodes$"
    ):
        run(complete_graph(4), center, requests_per_proc=2)


@pytest.mark.parametrize("run, protocol", DRIVERS)
def test_zero_budget_is_an_empty_complete_run(k8, run, protocol):
    res = run(*_topology(k8, protocol), requests_per_proc=0, think_time=0.5)
    assert res.completions == res.total_requests == 0
    assert res.makespan == 0.0
    assert res.messages_sent == 0
    assert res.hops == res.latencies == res.owners == res.ack_times == []


def test_max_events_is_checked_before_the_event_fires_on_both_engines():
    """One event short of a run, both engines stop with the livelock error.

    The 4th event of this centralized loop routes node 3's request to a
    centre it cannot reach; with ``max_events=3`` neither engine may fire
    it, so the message engine raises no ``NetworkError`` first.
    """
    graph = Graph.from_columns(5, [0, 1, 3], [1, 2, 4], 1.0)
    errors = []
    for engine in ENGINES:
        run = closed_loop_runner("centralized", engine)
        with pytest.raises(SimulationError) as info:
            run(graph, 0, requests_per_proc=2, max_events=3)
        errors.append(str(info.value))
    assert errors == ["exceeded max_events=3; possible livelock in protocol code"] * 2
