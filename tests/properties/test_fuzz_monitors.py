"""Property-based fuzz harness: monitors as the oracle over random runs.

Each example draws a random spanning tree, a random open-loop schedule,
a random fault plan (possibly empty) and a service-time mode, then runs
both engines with a deep-checking :class:`ArrowMonitor` attached.
The monitor *is* the oracle: every per-event invariant plus the O(n)
configuration rescan must hold on every engine's trace, the two
engines must agree bit-for-bit on results and recovery reports, and
completion accounting must balance.

The profile is pinned (``derandomize=True``, fixed example budget) so CI
explores the identical corpus every run: 70 examples x 2 engines = 140
schedule x fault x engine cases.
"""

from hypothesis import given, settings, strategies as st

from repro.core.requests import RequestSchedule
from repro.fault_plan import FaultPlan
from repro.faults import run_arrow_faulted
from repro.monitors import ArrowMonitor
from repro.spanning.tree import SpanningTree
from small_models import tree_graph

ENGINES = ("fast", "message")

_times = st.floats(
    min_value=0.0, max_value=20.0, allow_nan=False, allow_infinity=False
)


@st.composite
def fuzz_case(draw):
    n = draw(st.integers(min_value=3, max_value=12))
    parent = [0] + [
        draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, n)
    ]
    tree = SpanningTree(parent, root=0)

    pairs = draw(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=n - 1), _times),
            min_size=1,
            max_size=30,
        )
    )
    schedule = RequestSchedule(pairs)

    crashes = tuple(
        draw(
            st.lists(
                st.tuples(st.integers(min_value=0, max_value=n - 1), _times),
                max_size=3,
            )
        )
    )
    drops = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        child = draw(st.integers(min_value=1, max_value=n - 1))
        t0 = draw(_times)
        dt = draw(
            st.floats(
                min_value=0.1, max_value=10.0,
                allow_nan=False, allow_infinity=False,
            )
        )
        drops.append((child, parent[child], t0, t0 + dt))
    loss = draw(
        st.one_of(
            st.just(0.0),
            st.floats(
                min_value=0.0, max_value=0.3,
                allow_nan=False, allow_infinity=False, exclude_max=True,
            ),
        )
    )
    plan = FaultPlan(
        crashes=crashes, link_drops=tuple(drops), loss_rate=loss
    )
    service_time = draw(st.sampled_from([0.0, 0.5]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return tree, schedule, plan, service_time, seed


@given(fuzz_case())
@settings(max_examples=70, derandomize=True, deadline=None)
def test_monitors_hold_and_engines_agree(case):
    tree, schedule, plan, service_time, seed = case
    graph = tree_graph(tree)
    outcomes = []
    for engine in ENGINES:
        monitor = ArrowMonitor(tree, deep=True)
        result, report = run_arrow_faulted(
            graph, tree, schedule, plan,
            engine=engine, seed=seed, service_time=service_time,
            on_event=monitor,
        )
        # The oracle: every invariant held per event; the books balance.
        monitor.finalize(expected=len(schedule))
        assert monitor.violation_count == 0
        assert monitor.completed == set(result.completions)
        assert monitor.lost == set(report.lost_rids)
        assert len(result.completions) + report.requests_lost == len(schedule)
        assert report.final_violations == 0
        outcomes.append((result.completions, result.makespan, report))
    assert outcomes[0] == outcomes[1]


@given(fuzz_case())
@settings(max_examples=25, derandomize=True, deadline=None)
def test_monitored_run_equals_unmonitored(case):
    """Monitors are observers: attaching one never perturbs the run."""
    tree, schedule, plan, service_time, seed = case
    graph = tree_graph(tree)
    bare, bare_report = run_arrow_faulted(
        graph, tree, schedule, plan, seed=seed, service_time=service_time
    )
    monitor = ArrowMonitor(tree, deep=True)
    watched, report = run_arrow_faulted(
        graph, tree, schedule, plan,
        seed=seed, service_time=service_time, on_event=monitor,
    )
    monitor.finalize(expected=len(schedule))
    assert watched.completions == bare.completions
    assert watched.makespan == bare.makespan
    assert report == bare_report
