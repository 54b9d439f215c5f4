"""Runtime protocol monitors: fault-free audits + synthetic violations.

Two angles: (1) attach an :class:`ArrowMonitor` to every engine on real
fault-free runs (open and closed loop) and require a clean audit; (2)
feed hand-built illegal event streams to the monitor and require each of
the five named invariant checkers to fire with the right
:class:`MonitorViolation` metadata.
"""

import pytest

from repro.core.fast_arrow import run_arrow_fast
from repro.core.fast_closed_loop import closed_loop_runner
from repro.core.requests import ROOT_RID
from repro.core.runner import run_arrow
from repro.errors import MonitorViolation, SweepError
from repro.faults import run_arrow_faulted
from repro.graphs import complete_graph, path_graph
from repro.monitors import MONITOR_NAMES, ArrowMonitor
from repro.spanning import SpanningTree, balanced_binary_overlay, bfs_tree
from repro.workloads.schedules import poisson

ENGINES = {
    "message": run_arrow,
    "fast": run_arrow_fast,
}


def chain_tree(n):
    return SpanningTree([max(0, i - 1) for i in range(n)], root=0)


# ----------------------------------------------------------------------
# fault-free audits on real runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("service_time", [0.0, 0.5])
def test_open_loop_fault_free_audit(engine, service_time):
    graph = complete_graph(8)
    tree = bfs_tree(graph, 0)
    schedule = poisson(8, 40, 4.0, seed=2)
    monitor = ArrowMonitor(tree, deep=True)
    result = ENGINES[engine](
        graph, tree, schedule, seed=3, service_time=service_time,
        on_event=monitor,
    )
    monitor.finalize(expected=len(schedule))
    assert monitor.completed == set(result.completions)
    assert not monitor.lost
    assert monitor.violation_count == 0
    assert monitor.events_seen > len(schedule)


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_closed_loop_fault_free_audit(engine):
    graph = complete_graph(8)
    tree = bfs_tree(graph, 0)
    monitor = ArrowMonitor(tree, deep=True)
    runner = closed_loop_runner("arrow", engine)
    result = runner(
        graph, tree, requests_per_proc=5, seed=1, service_time=0.1,
        think_time=0.1, on_event=monitor,
    )
    monitor.finalize(expected=result.total_requests)
    assert len(monitor.completed) == result.total_requests
    # Byte-transparency on the closed loop: watching changes nothing.
    bare = runner(
        graph, tree, requests_per_proc=5, seed=1, service_time=0.1,
        think_time=0.1,
    )
    assert result == bare


def test_monitored_run_results_identical_to_unmonitored():
    graph = path_graph(9)
    tree = bfs_tree(graph, 0)
    schedule = poisson(9, 36, 3.0, seed=5)
    for engine, runner in ENGINES.items():
        bare = runner(graph, tree, schedule, seed=7, service_time=0.3)
        monitor = ArrowMonitor(tree)
        watched = runner(
            graph, tree, schedule, seed=7, service_time=0.3, on_event=monitor
        )
        monitor.finalize(expected=len(schedule))
        assert watched.completions == bare.completions, engine
        assert watched.makespan == bare.makespan, engine
        assert watched.network_stats == bare.network_stats, engine


def _closed_loop(engine, graph, tree, on_event, service_time, think_time):
    closed_loop_runner("arrow", engine)(
        graph, tree, requests_per_proc=6, seed=5, service_time=service_time,
        think_time=think_time, on_event=on_event,
    )


def _faulted(engine, graph, tree, on_event, plan, service_time):
    schedule = poisson(16, 120, 8.0, seed=4)
    run_arrow_faulted(
        graph, tree, schedule, plan, engine=engine, seed=5,
        service_time=service_time, on_event=on_event,
    )


@pytest.mark.parametrize(
    "run, args",
    [
        (_faulted, ("", 0.0)),  # the empty plan is the stock open loop
        (_faulted, ("", 0.1)),
        (_closed_loop, (0.0, 0.0)),
        (_closed_loop, (0.1, 0.1)),
        (_closed_loop, (0.1, 0.0)),  # re-issue inside the ack dispatch
        (_faulted, ("crash@3.0:1,loss:0.02", 0.0)),
        (_faulted, ("crash@3.0:1,loss:0.02", 0.1)),
        (_faulted, ("link@0-1:2-6", 0.1)),
        (_faulted, ("crash@0:0", 0.0)),  # the root is down from the start
    ],
)
def test_event_stream_is_engine_independent(run, args):
    """The raw ``on_event`` tuples, not just a monitor's verdict on them.

    Every fast-engine emit site must produce the message engine's event,
    with the same arguments, at the same position in the stream.
    """
    graph = complete_graph(16)
    tree = balanced_binary_overlay(graph, 0)
    streams = {}
    for engine in ENGINES:
        events = []
        run(engine, graph, tree, lambda *event: events.append(event), *args)
        streams[engine] = events
    assert streams["fast"] == streams["message"]
    assert len(streams["fast"]) > 120


# ----------------------------------------------------------------------
# synthetic violation streams — one per named monitor
# ----------------------------------------------------------------------
def expect_violation(monitor_name):
    return pytest.raises(MonitorViolation, match=rf"\[{monitor_name}\]")


def test_names_are_stable():
    assert MONITOR_NAMES == (
        "one-pointer-per-edge",
        "unique-sink",
        "token-conservation",
        "total-order",
        "completion-accounting",
    )


def test_violation_is_a_sweep_error_with_metadata():
    m = ArrowMonitor(chain_tree(3))
    with pytest.raises(MonitorViolation) as exc:
        m("init", 0, 1, 1.0)
        m("init", 0, 2, 2.0)
    assert isinstance(exc.value, SweepError)
    assert exc.value.monitor == "token-conservation"
    assert exc.value.at == 2.0
    assert m.violation_count == 1


def test_duplicate_issue_is_token_conservation():
    m = ArrowMonitor(chain_tree(3))
    m("init", 0, 1, 1.0)
    with expect_violation("token-conservation"):
        m("init", 0, 1, 2.0)


def test_deliver_without_flight_is_token_conservation():
    m = ArrowMonitor(chain_tree(3))
    with expect_violation("token-conservation"):
        m("deliver", 4, 0, 1, 1.0)


def test_complete_without_sink_is_token_conservation():
    m = ArrowMonitor(chain_tree(3))
    with expect_violation("token-conservation"):
        m("complete", 0, ROOT_RID, 0, 1.0, 0)


def test_send_against_mirrored_pointer_is_one_pointer_per_edge():
    m = ArrowMonitor(chain_tree(3))
    m("init", 0, 2, 1.0)  # mirror mandates send 2 -> 1
    with expect_violation("one-pointer-per-edge"):
        m("send", 0, 1, 0, 1.0)


def test_non_tree_edge_is_one_pointer_per_edge():
    m = ArrowMonitor(chain_tree(4))
    m("init", 0, 3, 1.0)  # mandates 3 -> 2
    m("send", 0, 3, 2, 1.0)
    m("deliver", 0, 2, 3, 2.0)  # mandates 2 -> 1
    with expect_violation("one-pointer-per-edge"):
        m("send", 0, 2, 0, 2.0)  # (2, 0) is not a tree edge


def test_completion_at_wrong_node_is_unique_sink():
    m = ArrowMonitor(chain_tree(3))
    m("init", 0, 1, 1.0)
    m("send", 0, 1, 0, 1.0)
    m("deliver", 0, 0, 1, 2.0)  # node 0 is the sink
    with expect_violation("unique-sink"):
        m("complete", 0, ROOT_RID, 1, 2.0, 1)


def test_wrong_predecessor_is_total_order():
    m = ArrowMonitor(chain_tree(3))
    m("init", 0, 1, 1.0)
    m("send", 0, 1, 0, 1.0)
    m("deliver", 0, 0, 1, 2.0)
    with expect_violation("total-order"):
        m("complete", 0, 99, 0, 2.0, 1)


def test_missing_requests_are_completion_accounting():
    m = ArrowMonitor(chain_tree(3))
    m("init", 0, 0, 1.0)  # local find at the root sink
    m("complete", 0, ROOT_RID, 0, 1.0, 0)
    with expect_violation("completion-accounting"):
        m.finalize(expected=2)


def test_dangling_flight_fails_finalize():
    m = ArrowMonitor(chain_tree(3))
    m("init", 0, 1, 1.0)
    m("send", 0, 1, 0, 1.0)
    with expect_violation("token-conservation"):
        m.finalize()


def test_unknown_event_kind_rejected():
    m = ArrowMonitor(chain_tree(3))
    with expect_violation("token-conservation"):
        m("teleport", 0, 1, 1.0)
