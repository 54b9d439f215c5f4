"""Fault-injection axis: plan parsing, engine parity, pinned recovery.

The fault layer's contract has three parts, each tested here:

* the fault-plan mini-language round-trips through its canonical label
  and rejects malformed plans at parse time;
* both engines produce *identical* results and recovery reports
  under the same plan (the bit-identity contract extends to faults;
  ``tests/small_models.py``'s ``faults`` axis checks every small plan),
  and the empty plan is bit-identical to the fault-free engines;
* recovery metrics for a small crash+loss grid are pinned to exact
  deterministic-seed values, so any change to fault semantics — drop
  ordering, repair timing, RNG stream — fails loudly instead of
  silently shifting published numbers.
"""

import math

import pytest

from repro.core.fast_arrow import run_arrow_fast
from repro.errors import FaultPlanError, NetworkError, SimulationError, SweepError
from repro.fault_plan import parse_fault_plan
from repro.faults import epoch_rid, run_arrow_faulted
from repro.graphs import complete_graph
from repro.graphs.generators import path_graph
from repro.monitors import ArrowMonitor
from repro.spanning import balanced_binary_overlay, bfs_tree
from repro.workloads.schedules import poisson

ENGINES = ("fast", "message")


# ----------------------------------------------------------------------
# plan parsing and canonicalisation
# ----------------------------------------------------------------------
def test_parse_round_trips_through_label():
    for text in (
        "",
        "crash@3.0:1",
        "loss:0.05",
        "link@0-2:1.0-4.5",
        "crash@3.0:1,link@2-0:1.0-4.5,loss:0.05,crash@1.0:4",
    ):
        plan = parse_fault_plan(text)
        assert parse_fault_plan(plan.label()) == plan
        assert parse_fault_plan(plan.label()).label() == plan.label()


def test_plan_is_normalised():
    plan = parse_fault_plan("crash@5.0:1,crash@2.0:3,link@4-1:0.5-2.0")
    assert plan.crashes == ((3, 2.0), (1, 5.0))  # sorted by (time, node)
    assert plan.link_drops == ((1, 4, 0.5, 2.0),)  # endpoints normalised
    assert parse_fault_plan("crash@2.0:3,crash@5.0:1,link@1-4:0.5-2.0") == plan


def test_empty_plan():
    assert parse_fault_plan("").empty
    assert parse_fault_plan("").label() == ""
    assert not parse_fault_plan("loss:0.01").empty


@pytest.mark.parametrize(
    "bad",
    [
        "crash@3.0",  # missing node
        "crash@-1.0:2",  # negative time
        "crash@1.0:-2",  # negative node
        "loss:1.5",  # rate outside [0, 1)
        "loss:-0.1",
        "link@0-0:1.0-2.0",  # self-loop
        "link@0-1:3.0-2.0",  # empty window
        "meteor@1.0:0",  # unknown term
        "crash@x:1",  # unparsable number
    ],
)
def test_malformed_plans_rejected(bad):
    with pytest.raises(FaultPlanError):
        parse_fault_plan(bad)


def test_fault_plan_error_is_a_sweep_error():
    with pytest.raises(SweepError):
        parse_fault_plan("loss:2.0")


def test_plan_validates_node_bounds():
    plan = parse_fault_plan("crash@1.0:9")
    with pytest.raises(FaultPlanError):
        plan.validate_nodes(4)


def test_link_drop_must_be_a_tree_edge():
    graph = complete_graph(6)
    tree = bfs_tree(graph, 0)  # star: every node's parent is 0
    schedule = poisson(6, 12, 2.0, seed=0)
    with pytest.raises(FaultPlanError, match="tree edge"):
        run_arrow_faulted(graph, tree, schedule, "link@1-2:0.0-5.0")


def test_epoch_rids_are_distinct_from_sentinels():
    rids = [epoch_rid(k) for k in range(4)]
    assert rids == [-3, -4, -5, -6]
    assert len(set(rids)) == 4


# ----------------------------------------------------------------------
# empty-plan bit-identity and cross-engine parity
# ----------------------------------------------------------------------
def test_empty_plan_is_bit_identical_to_fault_free_engine():
    graph = complete_graph(10)
    tree = bfs_tree(graph, 0)
    schedule = poisson(10, 50, 4.0, seed=1)
    bare = run_arrow_fast(graph, tree, schedule, seed=4, service_time=0.2)
    faulted, report = run_arrow_faulted(
        graph, tree, schedule, "", seed=4, service_time=0.2
    )
    assert faulted.completions == bare.completions
    assert faulted.makespan == bare.makespan
    assert faulted.network_stats == bare.network_stats
    assert report.requests_lost == 0
    assert report.repairs_run == 0
    assert report.time_to_recovery == 0.0


@pytest.mark.parametrize(
    "plan", ["crash@2.5:2", "loss:0.04", "crash@2.5:2,loss:0.04"]
)
def test_three_engines_agree_under_faults(plan):
    graph = complete_graph(8)
    tree = bfs_tree(graph, 0)
    schedule = poisson(8, 40, 4.0, seed=3)
    outcomes = []
    for engine in ENGINES:
        monitor = ArrowMonitor(tree, deep=True)
        result, report = run_arrow_faulted(
            graph, tree, schedule, plan,
            engine=engine, seed=6, service_time=0.2, on_event=monitor,
        )
        monitor.finalize(expected=len(schedule))
        outcomes.append((result.completions, result.makespan, report))
    assert outcomes[0] == outcomes[1]


def test_conservation_every_request_completed_or_lost():
    path = path_graph(9)
    k32 = complete_graph(32)
    overlay = balanced_binary_overlay(k32, 0)
    grid_scale = poisson(32, 3200, rate=8.0, seed=1)
    for graph, tree, schedule, plan, kw in (
        (path, bfs_tree(path, 0), poisson(9, 45, 3.0, seed=7),
         "crash@3.0:4,loss:0.05", dict(seed=8)),
        # 3,200 requests through two crashes / 1% loss: the accounting the
        # sweep's fault axis persists per row still balances at grid scale.
        (k32, overlay, grid_scale, "crash@40.0:5,crash@200.0:11",
         dict(seed=1, service_time=0.1)),
        (k32, overlay, grid_scale, "loss:0.01", dict(seed=1, service_time=0.1)),
    ):
        result, report = run_arrow_faulted(graph, tree, schedule, plan, **kw)
        assert len(result.completions) + report.requests_lost == len(schedule)
        assert set(report.lost_rids).isdisjoint(result.completions)
        assert report.final_violations == 0
        assert report.repairs_run >= 1


def test_negative_service_time_rejected():
    graph = complete_graph(4)
    tree = bfs_tree(graph, 0)
    schedule = poisson(4, 8, 2.0, seed=0)
    # The same error and text the stock engines and Network raise for this
    # knob, with or without a plan to apply, on either engine.  A NaN one
    # used to run as 0 on the fast engine and fail mid-run on the message
    # engine.
    for bad in (-1.0, math.nan, math.inf):
        for plan in ("", "loss:0.1"):
            for engine in ENGINES:
                with pytest.raises(
                    NetworkError, match=f"^service_time must be finite and >= 0, got {bad}$"
                ):
                    run_arrow_faulted(
                        graph, tree, schedule, plan, engine=engine, service_time=bad
                    )


@pytest.mark.parametrize(
    "plan, service_time, events",
    [
        ("crash@3.0:1,loss:0.02", 0.0, 211),
        ("crash@3.0:1,loss:0.02", 0.1, 266),
        ("link@0-1:2-6", 0.0, 224),
        ("link@0-1:2-6", 0.1, 312),
    ],
)
@pytest.mark.parametrize("engine", ENGINES)
def test_max_events_guard_at_kernel_parity(plan, service_time, events, engine):
    """The livelock guard counts what the kernel fires, faults included:
    crash events and dropped initiations are fired events, dropped sends
    schedule nothing — so the smallest passing limit is engine-independent.
    """
    graph = complete_graph(16)
    tree = balanced_binary_overlay(graph, 0)
    schedule = poisson(16, 120, 8.0, seed=4)
    kw = dict(engine=engine, seed=5, service_time=service_time)
    run_arrow_faulted(graph, tree, schedule, plan, max_events=events, **kw)
    with pytest.raises(SimulationError, match="max_events"):
        run_arrow_faulted(graph, tree, schedule, plan, max_events=events - 1, **kw)


def test_unknown_engine_rejected():
    graph = complete_graph(4)
    tree = bfs_tree(graph, 0)
    schedule = poisson(4, 8, 2.0, seed=0)
    # "batch" is the retired numpy engine: rejected, with or without a plan.
    for engine, plan in (("quantum", ""), ("batch", ""), ("batch", "loss:0.1")):
        with pytest.raises(ValueError, match="'fast' or 'message'"):
            run_arrow_faulted(graph, tree, schedule, plan, engine=engine)


# ----------------------------------------------------------------------
# pinned deterministic-seed recovery metrics
# ----------------------------------------------------------------------
#: Exact recovery metrics of a small crash+loss grid (complete graph
#: n=8, BFS tree, poisson(8, 48, 4.0, seed=2), seed=9, service 0.2).
#: These values are a regression fence around the fault semantics: the
#: drop-check order, the quiescent-repair timing and the dedicated
#: ``fault-loss`` RNG stream all feed them.  If an intentional semantic
#: change shifts them, re-pin and say why in the commit.
_PINNED = {
    "crash@2:3": (4, 0, 1, 1, 5.961156451063407, (3, 4, 13, 20)),
    "loss:0.05": (1, 1, 1, 1, 5.9874654500707365, (30,)),
    "crash@2:3,crash@5:1,loss:0.03": (
        6, 1, 2, 1, 5.961156451063407, (3, 4, 13, 14, 15, 20)
    ),
}


@pytest.mark.parametrize("plan", sorted(_PINNED))
@pytest.mark.parametrize("engine", ENGINES)
def test_pinned_recovery_metrics(plan, engine):
    graph = complete_graph(8)
    tree = bfs_tree(graph, 0)
    schedule = poisson(8, 48, 4.0, seed=2)
    result, report = run_arrow_faulted(
        graph, tree, schedule, plan, engine=engine, seed=9, service_time=0.2
    )
    lost, dropped, corrections, repairs, ttr, rids = _PINNED[plan]
    assert report.requests_lost == lost
    assert report.messages_dropped == dropped
    assert report.corrections_applied == corrections
    assert report.repairs_run == repairs
    assert report.time_to_recovery == ttr
    assert report.lost_rids == rids
    assert result.makespan == 16.90401403481015
