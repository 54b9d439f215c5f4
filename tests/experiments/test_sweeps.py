"""Experiment-harness tests: theorem sweeps and ablations.

Each producer is checked twice: at a small scale, and (``*_paper_scale``)
at the scale of the paper's claim — Theorems 3.19, 3.21, 4.1 and 4.2, the
one-shot case and the ablations; the latter are the assertions of the
retired ``benchmarks/test_*.py``, without the timing fixture.
"""

import math

from repro.experiments.ablations import (
    run_protocol_ablation,
    run_service_time_ablation,
    run_tree_ablation,
)
from repro.experiments.competitive import run_async_comparison, run_competitive_sweep
from repro.experiments.lowerbound_sweep import run_theorem41_sweep, run_theorem42_sweep
from repro.experiments.one_shot_analysis import run_one_shot_analysis


def test_competitive_sweep_within_ceiling():
    res = run_competitive_sweep([8, 16, 32], requests=25, seed=1)
    hi = res.series_by_name("ratio (vs opt lower bd)").ys
    ceil = res.series_by_name("O(s log D) ceiling").ys
    assert all(h <= c for h, c in zip(hi, ceil))
    lo = res.series_by_name("ratio (vs opt upper bd)").ys
    assert all(l <= h for l, h in zip(lo, hi))
    # lo may dip slightly below 1 (the heuristic upper bound overshoots
    # the true optimum); it must stay positive and near-or-above 1.
    assert all(l > 0.8 for l in lo)


def test_competitive_sweep_paper_scale():
    """Theorem 3.19: under the proof-chain ceiling at every diameter, and
    growing at most logarithmically."""
    diameters = [8, 16, 32, 64, 128, 256]
    res = run_competitive_sweep(diameters, requests=60, seed=0)
    hi = res.series_by_name("ratio (vs opt lower bd)").ys
    ceil = res.series_by_name("O(s log D) ceiling").ys
    # The bound holds everywhere.
    assert all(h <= c for h, c in zip(hi, ceil))
    # Growth is at most logarithmic: ratio(D) / log2(D) does not blow up.
    normalised = [h / math.log2(d) for h, d in zip(hi, diameters)]
    assert max(normalised) <= 3.0 * normalised[0] + 1.0
    # Random workloads sit far below the worst case.
    assert max(h / c for h, c in zip(hi, ceil)) < 0.1


def test_async_comparison_costs_positive_and_bounded():
    res = run_async_comparison([8, 16], requests=20, seed=2)
    sync = res.series_by_name("sync total latency").ys
    asyn = res.series_by_name("async total latency").ys
    assert all(a > 0 for a in asyn)
    # Hop-for-hop delays are <= 1, so async total is at most ~sync total
    # plus reordering slack; sanity: within 2x.
    assert all(a <= 2.0 * s + 1e-9 for a, s in zip(asyn, sync))


def test_async_comparison_paper_scale():
    """Theorem 3.21: the same O(s log D) bound under asynchronous delays."""
    diameters = [8, 16, 32, 64, 128]
    res = run_async_comparison(diameters, requests=60, seed=0)
    sync = res.series_by_name("sync total latency").ys
    asyn = res.series_by_name("async total latency").ys
    ratio = res.series_by_name("async ratio (vs opt lower bd)").ys
    # Async per-message delays are <= the synchronous unit, so the total
    # stays within a reordering-slack factor of the sync run.
    assert all(a <= 2.0 * s for a, s in zip(asyn, sync))
    # The Theorem 3.21 ceiling is the 3.19 one; measured ratios are small.
    for r, d in zip(ratio, diameters):
        assert r <= (6 * math.ceil(math.log2(3 * d)) + 1) * 12


def test_theorem41_sweep_layered_dominates_literal():
    res = run_theorem41_sweep([16, 64, 256])
    lit = res.series_by_name("literal construction").ys
    lay = res.series_by_name("bitonic layered").ys
    assert lay[-1] > lit[-1]
    assert lay[-1] > lay[0] - 0.25  # non-degenerate growth trend
    # The simulated execution is one more legal scheduler, not one of the
    # two the tie-break bracket maximises over: at D = 256 it lands above.
    sim = res.series_by_name("literal (simulated)").ys
    assert (lit[-1], sim[-1]) == (1.8351254480286738, 1.842293906810036)


def test_theorem41_sweep_paper_scale():
    """Theorem 4.1: the bitonic layered reconstruction's ratio grows with D
    and tracks log D / log log D at simulable scales; the literal
    transcription stays at its flat factor (documented reproduction note)."""
    res = run_theorem41_sweep([16, 64, 256, 1024])
    lit = res.series_by_name("literal construction").ys
    lay = res.series_by_name("bitonic layered").ys
    target = res.series_by_name("log D / log log D target").ys
    # The layered instances separate arrow from opt by a growing factor.
    assert lay[-1] > lay[0]
    assert lay[-1] >= 2.8
    # ... tracking the paper's k(D) target within a constant at these scales.
    assert all(l >= 0.7 * t for l, t in zip(lay, target))
    # Literal transcription: flat factor ~2 (the documented note).
    assert all(1.5 <= l <= 2.2 for l in lit)


def test_theorem42_sweep_ratio_scales_with_stretch():
    res = run_theorem42_sweep([1, 2, 4], D_over_s=16)
    ratios = res.series_by_name("measured ratio").ys
    stretch = res.series_by_name("measured tree stretch").ys
    assert stretch == [1.0, 2.0, 4.0]
    assert ratios[2] >= 2.0 * ratios[0] - 1e-9
    assert res.series_by_name("simulated ratio").ys == [1.0, 2.0, 4.0]


def test_theorem42_sweep_paper_scale():
    """Theorem 4.2: the lower bound scales with the tree's stretch."""
    stretches = [1, 2, 4, 8]
    res = run_theorem42_sweep(stretches, D_over_s=64)
    ratios = res.series_by_name("measured ratio").ys
    stretch = res.series_by_name("measured tree stretch").ys
    # The constructions realise their prescribed stretch exactly.
    assert stretch == [float(s) for s in stretches]
    # Ratio grows linearly with s once the stretch term dominates the
    # (constant-at-this-scale) log term: each doubling of s doubles it.
    assert ratios[2] >= 2.0 * ratios[1] - 1e-9
    assert ratios[3] >= 2.0 * ratios[2] - 1e-9
    assert all(r >= s for r, s in zip(ratios, stretch))


def test_one_shot_analysis_paper_scale():
    """The one-shot concurrent case ([10]): ratio vs |R| under s log|R|."""
    res = run_one_shot_analysis([4, 8, 16, 32, 64], seed=0)
    hi = res.series_by_name("ratio (vs opt lower bd)").ys
    ceil = res.series_by_name("s log|R| ceiling").ys
    assert all(h <= c for h, c in zip(hi, ceil))
    # Measured one-shot ratios are modest and grow at most ~log |R|.
    assert hi[-1] <= 4.0 * hi[0] + 4.0


def test_tree_ablation_lower_stretch_lower_cost():
    res = run_tree_ablation(num_nodes=30, requests=80, seed=1)
    stretch = res.series_by_name("stretch").ys
    cost = res.series_by_name("arrow total latency").ys
    # The min-stretch tree should not lose to the max-stretch tree.
    best, worst = stretch.index(min(stretch)), stretch.index(max(stretch))
    if stretch[best] < stretch[worst]:
        assert cost[best] <= cost[worst] * 1.25


def test_tree_ablation_paper_scale():
    res = run_tree_ablation(num_nodes=48, requests=150, seed=0)
    stretch = res.series_by_name("stretch").ys
    cost = res.series_by_name("arrow total latency").ys
    assert all(s >= 1.0 for s in stretch)
    assert all(c > 0 for c in cost)
    # The minimum-stretch candidate is within 30% of the best cost: the
    # analysis' guidance (lower stretch => lower cost) holds empirically.
    low_stretch_cost = cost[stretch.index(min(stretch))]
    assert low_stretch_cost <= 1.3 * min(cost)


def test_protocol_ablation_message_counts():
    res = run_protocol_ablation(num_nodes=24, requests=120, seed=2)
    msgs = res.series_by_name("messages/op").ys
    arrow_bin, arrow_star, nta, central = msgs
    # Centralized: <= 2 messages/op by construction; NTA compresses paths.
    assert central <= 2.0 + 1e-9
    assert nta <= arrow_bin + 2.0
    assert all(m >= 0 for m in msgs)


def test_protocol_ablation_paper_scale():
    """Arrow vs NTA/Ivy adaptive pointers vs centralized (§1.1): messages
    per operation on a complete network under a contended Poisson load."""
    res = run_protocol_ablation(num_nodes=48, requests=300, seed=0)
    arrow_bin, arrow_star, nta, central = res.series_by_name("messages/op").ys
    # Centralized: exactly <= 2 messages per op.
    assert central <= 2.0 + 1e-9
    # NTA/Ivy pointers: around O(log n) forwards per op.
    assert nta <= 2.0 * math.log2(48)
    # Arrow on the binary tree: bounded by tree-distance ~ 2 log n.
    assert arrow_bin <= 2.0 * math.log2(48) + 2
    # Star tree keeps arrow within 2 hops/op + reply.
    assert arrow_star <= 4.0


def test_service_time_ablation_widens_gap():
    res = run_service_time_ablation(
        num_procs=24, requests_per_proc=60, service_times=[0.0, 0.3]
    )
    a = res.series_by_name("arrow").ys
    c = res.series_by_name("centralized").ys
    gap_low = c[0] - a[0]
    gap_high = c[1] - a[1]
    assert gap_high > gap_low


def test_service_time_ablation_paper_scale():
    res = run_service_time_ablation(
        num_procs=48, requests_per_proc=100, service_times=[0.0, 0.1, 0.2, 0.4]
    )
    arrow = res.series_by_name("arrow").ys
    central = res.series_by_name("centralized").ys
    gaps = [c - a for a, c in zip(arrow, central)]
    # The centralized disadvantage grows monotonically with CPU cost.
    assert all(g2 >= g1 - 1e-9 for g1, g2 in zip(gaps, gaps[1:]))
