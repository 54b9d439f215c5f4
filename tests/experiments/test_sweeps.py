"""Theorem and ablation tables: the paper's claims as assertions on rows.

Each table is checked twice: at a small scale, through its named grid and
:func:`~repro.results.figure_from_rows`, and (``*_paper_scale``) at the
scale of the paper's claim — Theorems 3.19, 3.21, 4.1 and 4.2, the
one-shot case and the ablations.  A paper-scale check at a command's
published defaults reads the session's one run of that command
(``published``), the same run ``test_cli``'s pinned values come from.
"""

import math

from repro.results import figure_from_rows
from repro.sweep import (
    iter_sweep,
    service_time_grids,
)
from repro.sweep.spec import (
    protocol_ablation_grid,
    thm319_grid,
    thm321_grid,
    thm41_grid,
    thm42_grid,
    tree_ablation_grid,
)


def _table(name, *specs):
    """``{series: ys}`` of figure ``name`` over the rows of ``specs``."""
    rows = [row for spec in specs for row in iter_sweep(spec)]
    return {s.name: s.ys for s in figure_from_rows(name, rows).series}


def test_competitive_sweep_within_ceiling():
    res = _table("thm319", thm319_grid((8, 16, 32), requests=25, seed=1))
    hi = res["ratio (vs opt lower bd)"]
    ceil = res["O(s log D) ceiling"]
    assert all(h <= c for h, c in zip(hi, ceil))
    lo = res["ratio (vs opt upper bd)"]
    assert all(l <= h for l, h in zip(lo, hi))
    # lo may dip slightly below 1 (the heuristic upper bound overshoots
    # the true optimum); it must stay positive and near-or-above 1.
    assert all(l > 0.8 for l in lo)


def test_competitive_sweep_paper_scale():
    """Theorem 3.19: under the proof-chain ceiling at every diameter, and
    growing at most logarithmically."""
    diameters = [8, 16, 32, 64, 128, 256]
    res = _table("thm319", thm319_grid(diameters, requests=60, seed=0))
    hi = res["ratio (vs opt lower bd)"]
    ceil = res["O(s log D) ceiling"]
    # The bound holds everywhere.
    assert all(h <= c for h, c in zip(hi, ceil))
    # Growth is at most logarithmic: ratio(D) / log2(D) does not blow up.
    normalised = [h / math.log2(d) for h, d in zip(hi, diameters)]
    assert max(normalised) <= 3.0 * normalised[0] + 1.0
    # Random workloads sit far below the worst case.
    assert max(h / c for h, c in zip(hi, ceil)) < 0.1


def test_async_comparison_costs_positive_and_bounded():
    res = _table("thm321", thm321_grid((8, 16), requests=20, seed=2))
    sync = res["sync total latency"]
    asyn = res["async total latency"]
    assert all(a > 0 for a in asyn)
    # Hop-for-hop delays are <= 1, so async total is at most ~sync total
    # plus reordering slack; sanity: within 2x.
    assert all(a <= 2.0 * s + 1e-9 for a, s in zip(asyn, sync))


def test_async_comparison_paper_scale(published):
    """Theorem 3.21: the same O(s log D) bound under asynchronous delays."""
    diameters = [8, 16, 32, 64, 128]
    res = published("thm321")["thm321"]
    sync = res["sync total latency"]
    asyn = res["async total latency"]
    ratio = res["async ratio (vs opt lower bd)"]
    # Async per-message delays are <= the synchronous unit, so the total
    # stays within a reordering-slack factor of the sync run.
    assert all(a <= 2.0 * s for a, s in zip(asyn, sync))
    # The Theorem 3.21 ceiling is the 3.19 one; measured ratios are small.
    for r, d in zip(ratio, diameters, strict=True):
        assert r <= (6 * math.ceil(math.log2(3 * d)) + 1) * 12


def test_theorem41_sweep_layered_dominates_literal():
    res = _table("thm41", thm41_grid((16, 64, 256)))
    lit = res["literal construction"]
    lay = res["bitonic layered"]
    assert lay[-1] > lit[-1]
    assert lay[-1] > lay[0] - 0.25  # non-degenerate growth trend
    # The simulated execution is one more legal scheduler, not one of the
    # two the tie-break bracket maximises over: at D = 256 it lands above.
    sim = res["literal (simulated)"]
    assert (lit[-1], sim[-1]) == (1.8351254480286738, 1.842293906810036)


def test_theorem41_sweep_paper_scale(published):
    """Theorem 4.1: the bitonic layered reconstruction's ratio grows with D
    and tracks log D / log log D at simulable scales; the literal
    transcription stays at its flat factor (documented reproduction note)."""
    res = published("thm41")["thm41"]
    lit = res["literal construction"]
    lay = res["bitonic layered"]
    target = res["log D / log log D target"]
    assert len(lay) == 4  # D = 16, 64, 256, 1024
    # The layered instances separate arrow from opt by a growing factor.
    assert lay[-1] > lay[0]
    assert lay[-1] >= 2.8
    # ... tracking the paper's k(D) target within a constant at these scales.
    assert all(l >= 0.7 * t for l, t in zip(lay, target))
    # Literal transcription: flat factor ~2 (the documented note).
    assert all(1.5 <= l <= 2.2 for l in lit)


def test_theorem42_sweep_ratio_scales_with_stretch():
    res = _table("thm42", thm42_grid((1, 2, 4), D_over_s=16))
    ratios = res["measured ratio"]
    stretch = res["measured tree stretch"]
    assert stretch == [1.0, 2.0, 4.0]
    assert ratios[2] >= 2.0 * ratios[0] - 1e-9
    assert res["simulated ratio"] == [1.0, 2.0, 4.0]


def test_theorem42_sweep_paper_scale(published):
    """Theorem 4.2: the lower bound scales with the tree's stretch."""
    stretches = [1, 2, 4, 8]
    res = published("thm42")["thm42"]
    ratios = res["measured ratio"]
    stretch = res["measured tree stretch"]
    # The constructions realise their prescribed stretch exactly.
    assert stretch == [float(s) for s in stretches]
    # Ratio grows linearly with s once the stretch term dominates the
    # (constant-at-this-scale) log term: each doubling of s doubles it.
    assert ratios[2] >= 2.0 * ratios[1] - 1e-9
    assert ratios[3] >= 2.0 * ratios[2] - 1e-9
    assert all(r >= s for r, s in zip(ratios, stretch))


def test_one_shot_analysis_paper_scale(published):
    """The one-shot concurrent case ([10]): ratio vs |R| under s log|R|."""
    res = published("oneshot")["oneshot"]
    hi = res["ratio (vs opt lower bd)"]
    ceil = res["s log|R| ceiling"]
    assert len(hi) == 5  # |R| = 4 .. 64
    assert all(h <= c for h, c in zip(hi, ceil))
    # Measured one-shot ratios are modest and grow at most ~log |R|.
    assert hi[-1] <= 4.0 * hi[0] + 4.0


def test_tree_ablation_lower_stretch_lower_cost():
    res = _table("ablation-trees", tree_ablation_grid(n=30, requests=80, seed=1))
    stretch = res["stretch"]
    cost = res["arrow total latency"]
    # The min-stretch tree should not lose to the max-stretch tree.
    best, worst = stretch.index(min(stretch)), stretch.index(max(stretch))
    if stretch[best] < stretch[worst]:
        assert cost[best] <= cost[worst] * 1.25


def test_tree_ablation_paper_scale(published):
    res = published("ablations")["ablation-trees"]
    stretch = res["stretch"]
    cost = res["arrow total latency"]
    assert all(s >= 1.0 for s in stretch)
    assert all(c > 0 for c in cost)
    # The minimum-stretch candidate is within 30% of the best cost: the
    # analysis' guidance (lower stretch => lower cost) holds empirically.
    low_stretch_cost = cost[stretch.index(min(stretch))]
    assert low_stretch_cost <= 1.3 * min(cost)


def test_protocol_ablation_message_counts():
    res = _table("ablation-protocols", protocol_ablation_grid(n=24, requests=120, seed=2))
    msgs = res["messages/op"]
    arrow_bin, arrow_star, nta, central = msgs
    # Centralized: <= 2 messages/op by construction; NTA compresses paths.
    assert central <= 2.0 + 1e-9
    assert nta <= arrow_bin + 2.0
    assert all(m >= 0 for m in msgs)


def test_ablation_cells_replay_one_schedule_without_the_opt_bracket():
    """Cells that differ only in tree or protocol build one schedule from
    the master seed; the ablations' Poisson rows skip the opt bracket the
    competitive rows carry."""
    from repro.sweep import get_family

    spec = protocol_ablation_grid(n=12, requests=20)
    built = [get_family("ratio").build(cell, cell.seed) for cell in spec.cells()]
    assert len({(tuple(b["schedule"].nodes), tuple(b["schedule"].times)) for b in built}) == 1
    rows = list(iter_sweep(spec))
    assert [(r["tree"], r["protocol"]) for r in rows] == [
        (t, p) for t in ("binary", "star") for p in ("arrow", "adaptive", "centralized")
    ]
    assert not any("opt_upper" in r or "ceiling" in r for r in rows)
    (row,) = iter_sweep(thm319_grid((8,), requests=5))
    assert row["ratio_lo"] <= row["ratio_hi"] <= row["ceiling"]
    assert "oneshot_ceiling" not in row


def test_protocol_ablation_paper_scale():
    """Arrow vs NTA/Ivy adaptive pointers vs centralized (§1.1): messages
    per operation on a complete network under a contended Poisson load."""
    res = _table("ablation-protocols", protocol_ablation_grid(n=48, requests=300, seed=0))
    arrow_bin, arrow_star, nta, central = res["messages/op"]
    # Centralized: exactly <= 2 messages per op.
    assert central <= 2.0 + 1e-9
    # NTA/Ivy pointers: around O(log n) forwards per op.
    assert nta <= 2.0 * math.log2(48)
    # Arrow on the binary tree: bounded by tree-distance ~ 2 log n.
    assert arrow_bin <= 2.0 * math.log2(48) + 2
    # Star tree keeps arrow within 2 hops/op + reply.
    assert arrow_star <= 4.0


def test_service_time_ablation_widens_gap():
    res = _table(
        "ablation-service-time",
        *service_time_grids(n=24, requests_per_proc=60, service_times=(0.0, 0.3)),
    )
    a = res["closed_arrow"]
    c = res["closed_centralized"]
    gap_low = c[0] - a[0]
    gap_high = c[1] - a[1]
    assert gap_high > gap_low


def test_service_time_ablation_paper_scale():
    res = _table(
        "ablation-service-time",
        *service_time_grids(
            n=48, requests_per_proc=100, service_times=(0.0, 0.1, 0.2, 0.4)
        ),
    )
    arrow = res["closed_arrow"]
    central = res["closed_centralized"]
    gaps = [c - a for a, c in zip(arrow, central)]
    # The centralized disadvantage grows monotonically with CPU cost.
    assert all(g2 >= g1 - 1e-9 for g1, g2 in zip(gaps, gaps[1:]))
