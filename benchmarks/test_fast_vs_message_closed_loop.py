"""Fast closed-loop engine vs message simulator: equivalence + speedup report.

Times both engines on a Fig. 10-sized closed loop (complete graph,
balanced binary overlay, per-node service time, think time), verifies the
outputs are bit-identical, and records the speedup ratio in
``benchmark.extra_info`` so the trajectory lands in the archived
BENCH_*.json alongside the open-loop engine benchmark.  The ratio is
reported, not asserted: wall-clock gating lives in ``benchmarks/e2e``.
"""

import time

from repro.core.fast_closed_loop import (
    closed_loop_arrow_fast,
    closed_loop_centralized_fast,
)
from repro.graphs import complete_graph
from repro.spanning import balanced_binary_overlay
from repro.workloads.closed_loop import closed_loop_arrow, closed_loop_centralized

PROCS = 64
REQUESTS_PER_PROC = 150  # 9600 closed-loop requests end to end
KW = dict(requests_per_proc=REQUESTS_PER_PROC, service_time=0.1, think_time=0.1)


def _workload():
    g = complete_graph(PROCS)
    tree = balanced_binary_overlay(g, 0)
    return g, tree


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_fast_closed_loop_speedup(benchmark):
    g, tree = _workload()

    slow = closed_loop_arrow(g, tree, **KW)
    fast = benchmark(lambda: closed_loop_arrow_fast(g, tree, **KW))
    # Equivalence first: speed means nothing if the answers drift.
    assert fast == slow
    central_slow = closed_loop_centralized(g, 0, **KW)
    central_fast = closed_loop_centralized_fast(g, 0, **KW)
    assert central_fast == central_slow

    message_s = _best_of(lambda: closed_loop_arrow(g, tree, **KW))
    fast_s = _best_of(lambda: closed_loop_arrow_fast(g, tree, **KW))
    central_message_s = _best_of(lambda: closed_loop_centralized(g, 0, **KW))
    central_fast_s = _best_of(lambda: closed_loop_centralized_fast(g, 0, **KW))
    speedup = message_s / fast_s
    benchmark.extra_info["requests"] = PROCS * REQUESTS_PER_PROC
    benchmark.extra_info["message_engine_seconds"] = message_s
    benchmark.extra_info["fast_engine_seconds"] = fast_s
    benchmark.extra_info["speedup_vs_message"] = speedup
    benchmark.extra_info["centralized_speedup_vs_message"] = (
        central_message_s / central_fast_s
    )
    print(
        f"\narrow closed loop: message {message_s * 1e3:.1f} ms, "
        f"fast {fast_s * 1e3:.1f} ms, speedup {speedup:.1f}x; "
        f"centralized speedup {central_message_s / central_fast_s:.1f}x "
        f"over {PROCS * REQUESTS_PER_PROC} requests"
    )
