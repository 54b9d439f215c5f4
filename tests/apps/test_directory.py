"""Tests for the distributed-directory applications (§1 / §5.1)."""

import math
import sys

import pytest

from repro.apps.directory import arrow_directory, home_directory
from repro.errors import NetworkError, ScheduleError, SimulationError
from repro.graphs import complete_graph, grid_graph
from repro.net.latency import UniformLatency
from repro.spanning import balanced_binary_overlay, bfs_tree
from directory_oracles import arrow_directory_message, home_directory_message


@pytest.fixture
def k8():
    g = complete_graph(8)
    return g, balanced_binary_overlay(g, root=0)


def test_arrow_directory_all_acquisitions_complete(k8):
    g, tree = k8
    res = arrow_directory(g, tree, acquisitions_per_proc=15)
    assert res.completions == 8 * 15
    assert len(res.intervals) == 120


def test_arrow_directory_mutual_exclusion(k8):
    g, tree = k8
    res = arrow_directory(g, tree, acquisitions_per_proc=25, cs_time=0.7)
    assert res.exclusion_holds()


def test_arrow_directory_async_mutual_exclusion(k8):
    g, tree = k8
    res = arrow_directory(
        g,
        tree,
        acquisitions_per_proc=15,
        latency=UniformLatency(0.2, 1.0),
        seed=3,
    )
    assert res.exclusion_holds()
    assert res.completions == 120


def test_arrow_directory_on_grid():
    g = grid_graph(3, 4)
    tree = bfs_tree(g, 0)
    res = arrow_directory(g, tree, acquisitions_per_proc=10)
    assert res.completions == 120
    assert res.exclusion_holds()


def test_home_directory_all_acquisitions_and_exclusion(k8):
    g, _ = k8
    res = home_directory(g, 0, acquisitions_per_proc=15, cs_time=0.7)
    assert res.completions == 120
    assert res.exclusion_holds()


def test_home_directory_message_count_per_op(k8):
    """dreq + dfwd + dobj + ddone per remote handoff: about 4/op."""
    g, _ = k8
    res = home_directory(g, 0, acquisitions_per_proc=20)
    per_op = res.messages_sent / res.total_acquisitions
    assert 3.0 <= per_op <= 4.0 + 1e-9


def test_arrow_directory_cheaper_handoffs(k8):
    """Arrow ships the object directly: fewer messages per acquisition."""
    g, tree = k8
    a = arrow_directory(g, tree, acquisitions_per_proc=25)
    h = home_directory(g, 0, acquisitions_per_proc=25)
    assert a.messages_sent < h.messages_sent


def test_arrow_directory_beats_home_based_makespan(k8):
    """The §5.1 headline: arrow directory completes sooner, 2..16 PEs."""
    for n in (2, 16):
        g = complete_graph(n)
        tree = balanced_binary_overlay(g, root=0)
        a = arrow_directory(g, tree, acquisitions_per_proc=20, service_time=0.1)
        h = home_directory(g, 0, acquisitions_per_proc=20, service_time=0.1)
        assert a.makespan < h.makespan


def test_directory_result_statistics(k8):
    g, tree = k8
    res = arrow_directory(g, tree, acquisitions_per_proc=5)
    assert res.total_acquisitions == 40
    assert res.mean_wait >= 0.0
    assert res.makespan > 0.0


def test_mean_wait_does_not_depend_on_the_builtin_sum():
    """The gap total is one left-to-right accumulation: on this run the
    compensated ``sum`` of CPython >= 3.12 gives a different mean, and a
    ``mean_wait`` row column must not depend on the interpreter."""
    res = home_directory(
        complete_graph(9), 0, acquisitions_per_proc=10, cs_time=0.3, service_time=0.1
    )
    ordered = sorted(res.intervals)
    gaps = [a2 - r1 for (_, r1, _), (a2, _, _) in zip(ordered, ordered[1:])]
    total = 0.0
    for gap in gaps:
        total += gap
    assert res.mean_wait == total / len(gaps)
    if sys.version_info >= (3, 12):
        assert sum(gaps) / len(gaps) != res.mean_wait


@pytest.mark.parametrize("home", [9, -1])
def test_home_directory_rejects_out_of_range_home(home):
    with pytest.raises(NetworkError, match=f"home {home} out of range for 4 nodes"):
        home_directory(complete_graph(4), home, acquisitions_per_proc=2)


def _run(protocol, g, tree, **kw):
    if protocol == "arrow":
        return arrow_directory(g, tree, **kw)
    return home_directory(g, 0, **kw)


@pytest.mark.parametrize("protocol", ["arrow", "home"])
def test_directory_drivers_reject_negative_loop_knobs(k8, protocol):
    g, tree = k8
    with pytest.raises(ScheduleError, match="acquisitions_per_proc must be >= 0, got -1"):
        _run(protocol, g, tree, acquisitions_per_proc=-1)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ScheduleError, match=f"^cs_time must be finite and >= 0, got {bad}$"):
            _run(protocol, g, tree, acquisitions_per_proc=2, cs_time=bad)


@pytest.mark.parametrize("protocol", ["arrow", "home"])
def test_zero_acquisitions_is_an_empty_complete_run(k8, protocol):
    g, tree = k8
    res = _run(protocol, g, tree, acquisitions_per_proc=0)
    assert (res.completions, res.makespan, res.messages_sent) == (0, 0.0, 0)


@pytest.mark.parametrize("protocol", ["arrow", "home"])
def test_identical_directory_runs_compare_equal(k8, protocol):
    g, tree = k8
    kw = dict(acquisitions_per_proc=5, latency=UniformLatency(0.2, 1.0), seed=3)
    a, b = _run(protocol, g, tree, **kw), _run(protocol, g, tree, **kw)
    assert a == b


# ----------------------------------------------------------------------
# flat loops == message versions beyond the corpus's sizes
# ----------------------------------------------------------------------
def _sized(kind):
    if kind == "k16-binary":
        g = complete_graph(16)
        return g, balanced_binary_overlay(g, root=0)
    g = grid_graph(4, 5)
    return g, bfs_tree(g, 7)


@pytest.mark.parametrize("protocol", ["arrow", "home"])
@pytest.mark.parametrize("kind", ["k16-binary", "grid4x5"])
@pytest.mark.parametrize(
    "knobs",
    [
        dict(service_time=0.1),
        dict(service_time=0.0, cs_time=0.0),
        dict(latency=UniformLatency(0.2, 1.0), seed=5, service_time=0.1, cs_time=0.3),
    ],
    ids=["service", "zero-cs", "uniform"],
)
def test_flat_directories_match_their_message_versions(protocol, kind, knobs):
    """The grid's scale and topologies the corpus does not reach: equal
    results (intervals in hand-off order included) and the same
    ``max_events`` cut one event short of the message run's count."""
    g, tree = _sized(kind)
    flat, message = (
        (arrow_directory, arrow_directory_message)
        if protocol == "arrow"
        else (home_directory, home_directory_message)
    )
    second = tree if protocol == "arrow" else 3
    kw = dict(acquisitions_per_proc=6, **knobs)
    want = message(g, second, **kw)
    assert flat(g, second, **kw) == want
    assert want.exclusion_holds() and want.completions == g.num_nodes * 6
    # The message run's fired count: the least limit it completes with.
    lo, hi = 0, 100_000
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            message(g, second, max_events=mid, **kw)
            hi = mid
        except SimulationError:
            lo = mid + 1
    assert flat(g, second, max_events=lo, **kw) == want
    with pytest.raises(SimulationError, match=f"exceeded max_events={lo - 1};"):
        flat(g, second, max_events=lo - 1, **kw)
