"""Runtime protocol monitors: fault-free audits + synthetic violations.

Two angles: (1) attach an :class:`ArrowMonitor` to every engine on real
fault-free runs (open and closed loop) and require a clean audit; (2)
feed hand-built illegal event streams to the monitor and require each of
the five named invariant checkers to fire with the right
:class:`MonitorViolation` metadata.
"""

import pytest

from repro.core import fast_arrow
from repro.core.event_stream import EVENT_CHUNK
from repro.core.fast_arrow import run_arrow_fast
from repro.core.fast_closed_loop import closed_loop_runner
from repro.core.requests import ROOT_RID
from repro.core.runner import run_arrow
from repro.errors import MonitorViolation, SimulationError, SweepError
from repro.faults import run_arrow_faulted
from repro.graphs import complete_graph
from repro.graphs.generators import path_graph
from repro.monitors import MONITOR_NAMES, ArrowMonitor
from repro.spanning import balanced_binary_overlay, bfs_tree
from repro.spanning.tree import SpanningTree
from repro.workloads.schedules import poisson
from monitor_helpers import events_seen

ENGINES = {
    "message": run_arrow,
    "fast": run_arrow_fast,
}


def chain_tree(n):
    return SpanningTree([max(0, i - 1) for i in range(n)], root=0)


NO_FINALIZE = object()


def replay(tree, events, chunk, *, deep=True, finalize=NO_FINALIZE):
    """Feed ``events`` to a fresh monitor ``chunk`` at a time (None: whole).

    Returns ``(verdict, completed, lost, events_seen)``; the verdict is
    ``None`` for a clean replay, else the violation's monitor, time, event
    ordinal and text.  ``finalize`` is the ``expected`` to finalize with
    (``None``: finalize without a request count).
    """
    m = ArrowMonitor(tree, deep=deep)
    step = chunk or max(len(events), 1)
    verdict = None
    try:
        for k in range(0, len(events), step):
            m(events[k:k + step])
        if finalize is not NO_FINALIZE:
            m.finalize(finalize)
    except MonitorViolation as exc:
        verdict = (exc.monitor, exc.at, exc.event, str(exc))
        assert m.violation_count == 1
    return verdict, m.completed, m.lost, events_seen(m)


def replay_all_chunkings(tree, events, **kwargs):
    """The one outcome of replaying whole, event by event and in sevens."""
    whole = replay(tree, events, None, **kwargs)
    assert replay(tree, events, 1, **kwargs) == whole
    assert replay(tree, events, 7, **kwargs) == whole
    return whole


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
    assert events_seen(monitor) > len(schedule)


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
        # A sink gets lists it must not keep: ``extend`` copies the tuples out.
        run(engine, graph, tree, events.extend, *args)
        streams[engine] = events
    assert streams["fast"] == streams["message"]
    assert len(streams["fast"]) > 120
    # Chunk boundaries are invisible: however the stream is cut, a fresh
    # monitor ends in the same state and passes finalize.
    verdict, *state = replay_all_chunkings(tree, streams["fast"], finalize=None)
    assert verdict is None
    assert state[-1] == len(streams["fast"])


# ----------------------------------------------------------------------
# synthetic violation streams — one per named monitor
# ----------------------------------------------------------------------
def expect_violation(n, events, monitor_name, *, finalize=NO_FINALIZE):
    """``events`` on a chain of ``n`` break ``monitor_name`` — at the last
    event, or at finalize when one is asked for — however they are chunked.
    Returns the violation's ``(monitor, at, event, text)``."""
    verdict, _, _, seen = replay_all_chunkings(
        chain_tree(n), events, deep=False, finalize=finalize
    )
    assert verdict is not None, "stream passed"
    monitor, _, event, text = verdict
    assert monitor == monitor_name and text.startswith(f"[{monitor_name}]")
    assert seen == len(events)
    if finalize is NO_FINALIZE:
        assert event == len(events) - 1 and text.endswith(f"(event #{event})")
    else:
        assert event is None and "(event #" not in text
    return verdict


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
        m([("init", 0, 1, 1.0), ("init", 0, 2, 2.0)])
    assert isinstance(exc.value, SweepError)
    assert exc.value.monitor == "token-conservation"
    assert exc.value.at == 2.0
    assert exc.value.event == 1
    assert str(exc.value) == "[token-conservation] request 0 issued twice (event #1)"
    assert m.violation_count == 1


def test_duplicate_issue_is_token_conservation():
    expect_violation(
        3, [("init", 0, 1, 1.0), ("init", 0, 1, 2.0)], "token-conservation"
    )


def test_deliver_without_flight_is_token_conservation():
    expect_violation(3, [("deliver", 4, 0, 1, 1.0)], "token-conservation")


def test_complete_without_sink_is_token_conservation():
    expect_violation(
        3, [("complete", 0, ROOT_RID, 0, 1.0, 0)], "token-conservation"
    )


def test_send_against_mirrored_pointer_is_one_pointer_per_edge():
    expect_violation(
        3,
        [
            ("init", 0, 2, 1.0),  # mirror mandates send 2 -> 1
            ("send", 0, 1, 0, 1.0),
        ],
        "one-pointer-per-edge",
    )


def test_non_tree_edge_is_one_pointer_per_edge():
    expect_violation(
        4,
        [
            ("init", 0, 3, 1.0),  # mandates 3 -> 2
            ("send", 0, 3, 2, 1.0),
            ("deliver", 0, 2, 3, 2.0),  # mandates 2 -> 1
            ("send", 0, 2, 0, 2.0),  # (2, 0) is not a tree edge
        ],
        "one-pointer-per-edge",
    )


def test_completion_at_wrong_node_is_unique_sink():
    expect_violation(
        3,
        [
            ("init", 0, 1, 1.0),
            ("send", 0, 1, 0, 1.0),
            ("deliver", 0, 0, 1, 2.0),  # node 0 is the sink
            ("complete", 0, ROOT_RID, 1, 2.0, 1),
        ],
        "unique-sink",
    )


def test_wrong_predecessor_is_total_order():
    expect_violation(
        3,
        [
            ("init", 0, 1, 1.0),
            ("send", 0, 1, 0, 1.0),
            ("deliver", 0, 0, 1, 2.0),
            ("complete", 0, 99, 0, 2.0, 1),
        ],
        "total-order",
    )


def test_missing_requests_are_completion_accounting():
    expect_violation(
        3,
        [
            ("init", 0, 0, 1.0),  # local find at the root sink
            ("complete", 0, ROOT_RID, 0, 1.0, 0),
        ],
        "completion-accounting",
        finalize=2,
    )


def test_dangling_flight_fails_finalize():
    expect_violation(
        3,
        [("init", 0, 1, 1.0), ("send", 0, 1, 0, 1.0)],
        "token-conservation",
        finalize=None,
    )


def test_unknown_event_kind_rejected():
    expect_violation(3, [("teleport", 0, 1, 1.0)], "token-conservation")


# ----------------------------------------------------------------------
# the chunked contract: deferred raises, chunk boundaries, aborted runs
# ----------------------------------------------------------------------
def test_deep_rescan_reports_the_events_time_not_its_hop_count():
    m = ArrowMonitor(chain_tree(3), deep=True)
    m([
        ("init", 0, 2, 5.5),
        ("send", 0, 2, 1, 5.5),
        ("deliver", 0, 1, 2, 6.5),
        ("send", 0, 1, 0, 6.5),
        ("deliver", 0, 0, 1, 7.5),
    ])
    m._edge_msgs[1] += 1  # a phantom message on edge (1, 0)
    with pytest.raises(MonitorViolation, match="crossed by 2 arrows") as exc:
        m([("complete", 0, ROOT_RID, 0, 7.5, 2)])
    assert exc.value.monitor == "one-pointer-per-edge"
    assert exc.value.at == 7.5
    assert exc.value.event == 5


def test_deferred_violation_names_its_event_whatever_the_chunking():
    graph = path_graph(6)
    tree = bfs_tree(graph, 0)
    events = []
    run_arrow_fast(graph, tree, poisson(6, 30, 2.0, seed=1), on_event=events.extend)
    # A second copy of the first completion, 20 events later.
    k = next(i for i, ev in enumerate(events) if ev[0] == "complete") + 20
    events.insert(k, next(ev for ev in events if ev[0] == "complete"))
    verdict, _, _, seen = replay_all_chunkings(tree, events)
    monitor, at, event, text = verdict
    assert (monitor, at, event) == ("token-conservation", events[k][4], k)
    assert text.endswith(f"without reaching a sink (event #{k})")
    assert seen == k + 1  # exact, though the raise came mid-chunk


def _lossy_run(tree, count, sink):
    schedule = poisson(16, count, 8.0, seed=4)
    _, report = run_arrow_faulted(
        complete_graph(16), tree, schedule, "crash@3.0:1,crash@20.0:5,loss:0.02",
        seed=5, service_time=0.1, on_event=sink,
    )
    return report


def test_fast_run_longer_than_the_chunk_passes_finalize():
    tree = balanced_binary_overlay(complete_graph(16), 0)
    sizes = []
    monitor = ArrowMonitor(tree, deep=True)
    report = _lossy_run(tree, 4000, lambda chunk: (sizes.append(len(chunk)), monitor(chunk)))
    monitor.finalize(expected=4000)
    # A chunk ends where a transition starts, so it overshoots by at most
    # the rest of one transition (deliver/send/drop) and a repair.
    assert len(sizes) >= 3 and max(sizes) <= EVENT_CHUNK + 3
    assert sizes[:-1] == [n for n in sizes[:-1] if n >= EVENT_CHUNK]
    assert events_seen(monitor) == sum(sizes)
    assert monitor.lost == set(report.lost_rids) and report.repairs_run >= 3


def test_fault_events_straddling_a_chunk_boundary_change_nothing(monkeypatch):
    tree = balanced_binary_overlay(complete_graph(16), 0)
    events = []
    _lossy_run(tree, 400, events.extend)
    whole = replay(tree, events, None, finalize=400)
    assert whole[0] is None and whole[2]
    # Cut the run right after each fault event in turn: the degradation
    # it opens (or the repair that closes it) is then on the other side.
    faults_at = [i for i, ev in enumerate(events) if ev[0] in ("drop", "crash", "repair")]
    last_of_chunk = set()
    for i in faults_at:
        monkeypatch.setattr(fast_arrow, "EVENT_CHUNK", i + 1)
        cut = ArrowMonitor(tree, deep=True)
        _lossy_run(tree, 400, lambda chunk: (last_of_chunk.add(chunk[-1][0]), cut(chunk)))
        cut.finalize(expected=400)
        assert (None, cut.completed, cut.lost, events_seen(cut)) == whole
    assert {"drop", "repair"} <= last_of_chunk


def test_aborted_fast_run_still_shows_the_monitor_what_it_emitted():
    graph = complete_graph(8)
    tree = bfs_tree(graph, 0)
    schedule = poisson(8, 40, 4.0, seed=2)
    full = []
    run_arrow_fast(graph, tree, schedule, seed=3, on_event=full.extend)

    monitor = ArrowMonitor(tree, deep=True)
    with pytest.raises(SimulationError, match="max_events=50"):
        run_arrow_fast(
            graph, tree, schedule, seed=3, max_events=50, on_event=monitor
        )
    # Fewer than a chunk, so only the flush in the ``finally`` can have
    # delivered them; a prefix of the full run's stream, replayed clean.
    seen = events_seen(monitor)
    assert 50 < seen < EVENT_CHUNK and monitor.violation_count == 0
    assert replay(tree, full[:seen], None)[1:] == (
        monitor.completed, monitor.lost, seen
    )
    assert replay(tree, full[:seen + 1], None)[1:] != (
        monitor.completed, monitor.lost, seen
    )

    # When the buffered events themselves break an invariant, that is what
    # surfaces, chained to the engine's error.
    wrong = ArrowMonitor(chain_tree(8))
    with pytest.raises(MonitorViolation) as exc:
        run_arrow_fast(
            graph, tree, schedule, seed=3, max_events=50, on_event=wrong
        )
    assert isinstance(exc.value.__context__, SimulationError)
    assert exc.value.event is not None and events_seen(wrong) == exc.value.event + 1
