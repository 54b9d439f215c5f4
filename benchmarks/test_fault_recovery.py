"""Fault-injection benchmark: recovery metrics + the overhead ratios.

Regenerates ``BENCH_faults.json`` from real runs (gitignored like every
``BENCH_*.json``; CI uploads it as a per-push artifact):

* ``crash_recovery`` — a 3200-request open-loop run through two node
  crashes: the recovery metrics (corrections, lost requests,
  time-to-recovery) the sweep's fault axis persists per row;
* ``loss_1pct`` — the same workload under 1% i.i.d. message loss;
* ``empty_plan_overhead`` — :func:`repro.faults.run_arrow_faulted` with
  the empty plan vs :func:`repro.core.fast_arrow.run_arrow_fast`: what
  the fault layer costs when no faults are injected;
* ``monitor_overhead`` — the Fig. 10-style closed loop with the
  ``on_event`` hook left at ``None`` vs a full deep-checking
  :class:`~repro.monitors.ArrowMonitor` attached: what the runtime
  monitors cost when you turn them on (disabled hooks are a pre-bound
  ``None`` test per event site, which is what keeps the fault-free
  engines at parity).

The wall-clock ratios are archived, not asserted (``benchmarks/e2e``
gates them as ``faults.empty_plan_ratio`` / ``monitors.overhead_ratio``).
The recovery *metrics* are exact deterministic values — they are also
pinned at small scale by ``tests/core/test_faults.py``.
"""

import json
import time

from repro.core.fast_arrow import run_arrow_fast
from repro.core.fast_closed_loop import closed_loop_arrow_fast
from repro.faults import run_arrow_faulted
from repro.graphs import complete_graph
from repro.monitors import ArrowMonitor
from repro.spanning import balanced_binary_overlay
from repro.workloads.schedules import poisson

BENCH_PATH = "BENCH_faults.json"

N = 32
REQUESTS = 3200
CRASH_PLAN = "crash@40.0:5,crash@200.0:11"
LOSS_PLAN = "loss:0.01"


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_fault_recovery_archive(benchmark):
    graph = complete_graph(N)
    tree = balanced_binary_overlay(graph, 0)
    schedule = poisson(N, REQUESTS, rate=8.0, seed=1)
    archive = {}

    # --- crash recovery ----------------------------------------------
    result, report = benchmark(
        lambda: run_arrow_faulted(
            graph, tree, schedule, CRASH_PLAN, seed=1, service_time=0.1
        )
    )
    assert report.repairs_run >= 1
    assert report.final_violations == 0
    assert len(result.completions) + report.requests_lost == REQUESTS
    archive["crash_recovery"] = {
        "requests": REQUESTS,
        **report.as_columns(),
    }

    # --- 1% message loss ---------------------------------------------
    result, report = run_arrow_faulted(
        graph, tree, schedule, LOSS_PLAN, seed=1, service_time=0.1
    )
    assert report.messages_dropped > 0
    assert report.final_violations == 0
    assert len(result.completions) + report.requests_lost == REQUESTS
    archive["loss_1pct"] = {
        "requests": REQUESTS,
        **report.as_columns(),
    }

    # --- empty-plan overhead -----------------------------------------
    plain = run_arrow_fast(graph, tree, schedule, seed=1, service_time=0.1)
    faulted, _ = run_arrow_faulted(
        graph, tree, schedule, "", seed=1, service_time=0.1
    )
    assert faulted.completions == plain.completions  # bit-identity first
    assert faulted.makespan == plain.makespan
    plain_s = _best_of(
        lambda: run_arrow_fast(graph, tree, schedule, seed=1, service_time=0.1),
        repeats=7,
    )
    faulted_s = _best_of(
        lambda: run_arrow_faulted(
            graph, tree, schedule, "", seed=1, service_time=0.1
        ),
        repeats=7,
    )
    ratio = faulted_s / plain_s
    archive["empty_plan_overhead"] = {
        "requests": REQUESTS,
        "plain_seconds": plain_s,
        "faulted_seconds": faulted_s,
        "overhead_ratio": ratio,
    }

    # --- monitor overhead on the Fig. 10 closed loop -----------------
    kw = dict(requests_per_proc=100, think_time=0.1, service_time=0.1, seed=3)
    bare = closed_loop_arrow_fast(graph, tree, **kw)
    monitor = ArrowMonitor(tree)
    watched = closed_loop_arrow_fast(graph, tree, on_event=monitor, **kw)
    monitor.finalize(expected=watched.total_requests)
    assert watched == bare  # ClosedLoopResult eq excludes wall clock
    off_s = _best_of(lambda: closed_loop_arrow_fast(graph, tree, **kw))

    def monitored():
        m = ArrowMonitor(tree)
        closed_loop_arrow_fast(graph, tree, on_event=m, **kw)

    on_s = _best_of(monitored)
    archive["monitor_overhead"] = {
        "requests": N * 100,
        "monitors_off_seconds": off_s,
        "monitors_on_seconds": on_s,
        "overhead_ratio": on_s / off_s,
    }

    with open(BENCH_PATH, "w", encoding="utf-8") as fh:
        json.dump(archive, fh, indent=2, sort_keys=True)
    benchmark.extra_info.update(archive)
