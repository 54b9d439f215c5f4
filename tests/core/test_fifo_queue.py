"""The two one-delay shortcuts of ``core.fast_arrow._arrow_loop``.

When every tree link has one delay in both directions, there is no
service time, no closed loop and no crash event, ``_arrow_loop`` takes
its events from a ``deque`` instead of a heap: each event is scheduled at
``now + d`` with the next sequence number, so events arrive in the order
they fire.  With a service time instead, on an open, fault-free run, it
folds each message's arrival into its send (the busy-queue fold): nodes
receive in send order, so the send can join the destination's service
queue and schedule the dispatch itself.  For the deque, two angles:

* **parity at depth** — runs that take the deque (the heap functions are
  patched to raise, so no heap call can hide) must equal the message
  engine's result, event stream and exact event count, and keep an
  :class:`~repro.monitors.ArrowMonitor` clean, beyond the small-model
  corpus's sizes: one-shot and Poisson schedules on five tree shapes, and
  loss-only fault plans, which seed no event on the heap;
* **queue choice** — each input that breaks the order argument (a service
  stage, two delays, a stochastic model, a crash plan, a closed loop)
  must reach the heap.

For the fold, the same two: folded runs (no arrival event is ever
queued) equal the message engine's on Poisson, one-shot and
integer-time schedules at service 0.1 / 0.5 / 1.0, where dispatch-time
ties are dense, fire its exact event count and raise its error one
short of it; and every input outside the fold (two delays, a stochastic
model, a fault plan, a closed loop, a directory) still queues arrivals.
"""

from __future__ import annotations

import pytest

from repro.apps.directory import arrow_directory
from repro.core import fast_arrow
from repro.core.fast_arrow import _ARRIVE, _DISPATCH, run_arrow_fast
from repro.core.fast_closed_loop import closed_loop_arrow_fast
from repro.core.requests import RequestSchedule
from repro.core.runner import run_arrow
from repro.errors import SimulationError
from repro.faults import run_arrow_faulted
from repro.graphs.generators import (
    balanced_binary_tree_graph,
    caterpillar_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.monitors import ArrowMonitor
from repro.net.latency import UniformLatency, UnitLatency, WeightLatency
from repro.spanning.construct import bfs_tree
from repro.workloads.schedules import one_shot, poisson
from latency_models import ScaledWeightLatency
from small_models import DirectedLatency

GRAPHS = {
    "path": lambda: path_graph(120),
    "star": lambda: star_graph(150),
    "binary_tree": lambda: balanced_binary_tree_graph(255),
    "caterpillar": lambda: caterpillar_graph(20, 4),
    "grid": lambda: grid_graph(12, 12),
}

SCHEDULES = {
    "one_shot": lambda n: one_shot(list(range(n))),
    "poisson": lambda n: poisson(n, 3 * n, rate=0.5 * n, seed=4),
}

LATENCIES = {"unit": UnitLatency(), "half": ScaledWeightLatency(0.5)}


class HeapReached(Exception):
    """Raised by the patched heap functions."""


@pytest.fixture
def no_heap(monkeypatch):
    """Make every heap operation of ``_arrow_loop`` raise."""

    def refuse(*args):
        raise HeapReached

    for name in ("heappush", "heappop", "heappushpop"):
        monkeypatch.setattr(fast_arrow, name, refuse)


def watched(run, tree, *args, **kw):
    """``run``'s outcome, its raw event stream and a finalized deep monitor."""
    events, monitor = [], ArrowMonitor(tree, deep=True)

    def sink(chunk):
        events.extend(chunk)
        monitor(chunk)

    out = run(*args, on_event=sink, **kw)
    return out, events, monitor


def smallest_completing_limit(run, hi):
    """Binary-search the least ``max_events`` with which ``run`` completes."""
    lo = 0  # run(lo) raises, run(hi) completes
    run(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            run(mid)
            hi = mid
        except SimulationError:
            lo = mid
    return hi


def assert_matches_message_engine(g, tree, sched, **kw):
    """The fast run equals the message engine's — result, stream and a
    clean deep monitor on both."""
    a, a_events, a_monitor = watched(run_arrow, tree, g, tree, sched, **kw)
    b, b_events, b_monitor = watched(run_arrow_fast, tree, g, tree, sched, **kw)
    # The five columns, the makespan and the network counters.
    assert (b.rids, b.predecessors, b.informed_nodes, b.completed_at, b.hops) == (
        a.rids, a.predecessors, a.informed_nodes, a.completed_at, a.hops
    )
    assert b.makespan == a.makespan
    assert b.network_stats == a.network_stats
    assert b_events == a_events
    for monitor in (a_monitor, b_monitor):
        monitor.finalize(expected=len(sched))
        assert monitor.violation_count == 0


@pytest.mark.parametrize("lname", sorted(LATENCIES))
@pytest.mark.parametrize("sname", sorted(SCHEDULES))
@pytest.mark.parametrize("gname", sorted(GRAPHS))
def test_deque_path_matches_message_engine(no_heap, gname, sname, lname):
    g = GRAPHS[gname]()
    tree = bfs_tree(g, 0)
    sched = SCHEDULES[sname](g.num_nodes)
    assert_matches_message_engine(g, tree, sched, latency=LATENCIES[lname], seed=3)


@pytest.mark.parametrize("sname", sorted(SCHEDULES))
@pytest.mark.parametrize("gname", sorted(GRAPHS))
def test_deque_path_fires_the_message_engines_event_count(no_heap, gname, sname):
    """The least completing ``max_events`` is the run's event count: one
    per initiation and one per delivery, on both engines."""
    g = GRAPHS[gname]()
    tree = bfs_tree(g, 0)
    sched = SCHEDULES[sname](g.num_nodes)
    events = len(sched) + run_arrow(g, tree, sched).network_stats["messages_sent"]
    message, fast = (
        smallest_completing_limit(
            lambda limit, fn=fn: fn(g, tree, sched, max_events=limit), 2 * events
        )
        for fn in (run_arrow, run_arrow_fast)
    )
    assert fast == message == events


@pytest.mark.parametrize(
    "plan", ["loss:0.05", "link@{u}-{p}:2.0-6.0", "link@{u}-{p}:1.0-4.0,loss:0.02"]
)
@pytest.mark.parametrize("gname", ["binary_tree", "grid"])
def test_loss_only_plans_take_the_deque_and_match(no_heap, gname, plan):
    """Loss-only plans seed no crash event, so they run on the deque too."""
    g = GRAPHS[gname]()
    tree = bfs_tree(g, 0)
    plan = plan.format(u=5, p=tree.parent[5])
    sched = poisson(g.num_nodes, 2 * g.num_nodes, rate=0.5 * g.num_nodes, seed=2)
    outcomes = []
    for engine in ("message", "fast"):
        (result, report), events, monitor = watched(
            run_arrow_faulted, tree, g, tree, sched, plan, engine=engine, seed=7
        )
        monitor.finalize(expected=len(sched))
        assert monitor.violation_count == 0
        outcomes.append((result, report, events))
    assert outcomes[0] == outcomes[1]
    assert outcomes[1][1].messages_dropped > 0  # the plan really dropped


@pytest.mark.parametrize(
    "case",
    ["service", "two_weights", "directed", "stochastic", "crash", "closed_loop"],
)
def test_inputs_outside_the_synchronous_model_reach_the_heap(no_heap, case):
    g = path_graph(6)
    tree = bfs_tree(g, 0)
    sched = one_shot([1, 3, 5])
    weighted = Graph.from_columns(6, range(5), range(1, 6), [1.0, 2.0, 1.0, 2.0, 1.0])
    runs = {
        "service": lambda: run_arrow_fast(g, tree, sched, service_time=0.1),
        "two_weights": lambda: run_arrow_fast(
            weighted, bfs_tree(weighted, 0), sched, latency=WeightLatency()
        ),
        "directed": lambda: run_arrow_fast(g, tree, sched, latency=DirectedLatency()),
        "stochastic": lambda: run_arrow_fast(g, tree, sched, latency=UniformLatency(0.2, 1.0)),
        "crash": lambda: run_arrow_faulted(g, tree, sched, "crash@0.5:2"),
        "closed_loop": lambda: closed_loop_arrow_fast(g, tree, requests_per_proc=2),
    }
    with pytest.raises(HeapReached):
        runs[case]()


# ----------------------------------------------------------------------
# the busy-queue fold
# ----------------------------------------------------------------------


def integer_times(n):
    """``SCHEDULES["poisson"]`` with every time rounded down to an integer."""
    sched = SCHEDULES["poisson"](n)
    return RequestSchedule.from_columns(sched.nodes, [float(int(t)) for t in sched.times])


FOLD_SCHEDULES = {**SCHEDULES, "integer": integer_times}
SERVICES = (0.1, 0.5, 1.0)


@pytest.fixture
def queued_tags(monkeypatch):
    """The tag of every event ``_arrow_loop`` puts on its heap, in order."""
    tags = []

    def recording(fn):
        def queue(heap, event):
            tags.append(event[2])
            return fn(heap, event)

        return queue

    for name in ("heappush", "heappushpop"):
        monkeypatch.setattr(fast_arrow, name, recording(getattr(fast_arrow, name)))
    return tags


@pytest.mark.parametrize("service", SERVICES)
@pytest.mark.parametrize("sname", sorted(FOLD_SCHEDULES))
@pytest.mark.parametrize("gname", sorted(GRAPHS))
def test_folded_runs_match_message_engine(queued_tags, gname, sname, service):
    g = GRAPHS[gname]()
    tree = bfs_tree(g, 0)
    sched = FOLD_SCHEDULES[sname](g.num_nodes)
    assert_matches_message_engine(g, tree, sched, seed=3, service_time=service)
    assert _ARRIVE not in queued_tags and _DISPATCH in queued_tags


def limit_outcome(run, limit):
    """``run(limit)``'s result columns, or the text of its error."""
    try:
        r = run(limit)
    except SimulationError as exc:
        return str(exc)
    return r.rids, r.predecessors, r.completed_at, r.hops, r.makespan


@pytest.mark.parametrize("sname", sorted(FOLD_SCHEDULES))
@pytest.mark.parametrize("gname", sorted(GRAPHS))
def test_folded_runs_fire_the_message_engines_event_count(queued_tags, gname, sname):
    """Two events per message, the elided arrival counted at its send: the
    least completing ``max_events`` is the message engine's, and one short
    of it both engines raise the same error."""
    g = GRAPHS[gname]()
    tree = bfs_tree(g, 0)
    sched = FOLD_SCHEDULES[sname](g.num_nodes)
    runs = [
        lambda limit, fn=fn: fn(g, tree, sched, service_time=0.5, max_events=limit)
        for fn in (run_arrow, run_arrow_fast)
    ]
    events = len(sched) + 2 * runs[0](None).network_stats["messages_sent"]
    message, fast = (smallest_completing_limit(run, 2 * events) for run in runs)
    assert fast == message == events
    assert _ARRIVE not in queued_tags
    for limit in (events - 1, events):
        assert limit_outcome(runs[1], limit) == limit_outcome(runs[0], limit)


@pytest.mark.parametrize(
    "case",
    ["folded", "two_weights", "directed", "stochastic", "loss", "crash",
     "closed_loop", "directory"],
)
def test_only_open_fault_free_one_delay_runs_fold(queued_tags, case):
    g = path_graph(6)
    tree = bfs_tree(g, 0)
    sched = one_shot([1, 3, 5])
    weighted = Graph.from_columns(6, range(5), range(1, 6), [1.0, 2.0, 1.0, 2.0, 1.0])
    kw = dict(service_time=0.1)
    runs = {
        "folded": lambda: run_arrow_fast(g, tree, sched, **kw),
        "two_weights": lambda: run_arrow_fast(
            weighted, bfs_tree(weighted, 0), sched, latency=WeightLatency(), **kw
        ),
        "directed": lambda: run_arrow_fast(g, tree, sched, latency=DirectedLatency(), **kw),
        "stochastic": lambda: run_arrow_fast(
            g, tree, sched, latency=UniformLatency(0.2, 1.0), **kw
        ),
        "loss": lambda: run_arrow_faulted(g, tree, sched, "loss:0.01", **kw),
        "crash": lambda: run_arrow_faulted(g, tree, sched, "crash@9:2", **kw),
        "closed_loop": lambda: closed_loop_arrow_fast(g, tree, requests_per_proc=2, **kw),
        "directory": lambda: arrow_directory(g, tree, acquisitions_per_proc=2, **kw),
    }
    runs[case]()
    assert _DISPATCH in queued_tags
    assert (_ARRIVE in queued_tags) == (case != "folded")
