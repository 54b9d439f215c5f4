"""Fast engine vs message simulator: equivalence, with the speedup reported.

Times both engines on the ``test_sim_throughput``-style workload scaled
to 10 000 requests (unit latency, complete graph, balanced binary
overlay), verifies the outputs are bit-identical, and records the
speedup ratio in ``benchmark.extra_info`` so the trajectory lands in the
archived BENCH_*.json alongside the paper-figure benchmarks.  The ratio
is reported, not asserted: wall-clock gating lives in ``benchmarks/e2e``
(``core.fast.us_per_event`` vs ``core.message.us_per_event``).
"""

import time

from repro.core.fast_arrow import run_arrow_fast
from repro.core.runner import run_arrow
from repro.graphs import complete_graph
from repro.spanning import balanced_binary_overlay
from repro.workloads.schedules import poisson

REQUESTS = 10_000


def _workload():
    g = complete_graph(64)
    tree = balanced_binary_overlay(g, 0)
    sched = poisson(64, REQUESTS, rate=50.0, seed=1)
    return g, tree, sched


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_fast_engine_speedup_on_10k_requests(benchmark):
    g, tree, sched = _workload()

    slow = run_arrow(g, tree, sched)
    fast = benchmark(lambda: run_arrow_fast(g, tree, sched))
    # Equivalence first: speed means nothing if the answers drift.
    assert fast.completions == slow.completions
    assert fast.makespan == slow.makespan
    assert fast.network_stats == slow.network_stats

    message_s = _best_of(lambda: run_arrow(g, tree, sched))
    fast_s = _best_of(lambda: run_arrow_fast(g, tree, sched))
    speedup = message_s / fast_s
    benchmark.extra_info["requests"] = REQUESTS
    benchmark.extra_info["message_engine_seconds"] = message_s
    benchmark.extra_info["fast_engine_seconds"] = fast_s
    benchmark.extra_info["speedup_vs_message"] = speedup
    print(
        f"\nmessage {message_s * 1e3:.1f} ms, fast {fast_s * 1e3:.1f} ms, "
        f"speedup {speedup:.1f}x over {REQUESTS} requests"
    )


def test_fast_engine_throughput_hop_heavy(benchmark):
    """Hop-heavy variant (path graph): per-message savings dominate."""
    from repro.graphs import path_graph
    from repro.spanning import bfs_tree

    n = 128
    g = path_graph(n)
    tree = bfs_tree(g, 0)
    sched = poisson(n, 4_000, rate=4.0, seed=2)
    res = benchmark(lambda: run_arrow_fast(g, tree, sched))
    assert len(res.completions) == 4_000
    benchmark.extra_info["mean_hops"] = res.mean_hops
