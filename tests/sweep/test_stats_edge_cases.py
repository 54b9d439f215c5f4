"""Edge cases of the latency-distribution columns (``repro.sweep.stats``).

The executor calls :func:`latency_columns` on *whatever* a run produced —
including zero-request cells, single-request cells, and degenerate
distributions where every latency is identical (or zero).  These shapes
must keep the schema stable and the histogram mass exactly equal to the
request count, because the ``sweep-verify`` CI primitive asserts both.
"""

from __future__ import annotations

import pytest

from repro.sweep.stats import (
    DEFAULT_BINS,
    latency_columns,
    percentile_nearest_rank,
)


def test_empty_latency_list_yields_all_zero_columns():
    cols = latency_columns([])
    assert cols["latency_mean"] == 0.0
    assert cols["latency_p50"] == 0.0
    assert cols["latency_p90"] == 0.0
    assert cols["latency_p99"] == 0.0
    assert cols["latency_max"] == 0.0
    assert cols["latency_hist"] == [0] * DEFAULT_BINS


def test_single_request_histogram_is_one_spike_in_the_top_bin():
    """n=1: the lone value *is* the max, so it lands in the last bucket."""
    cols = latency_columns([3.25])
    assert cols["latency_mean"] == 3.25
    assert cols["latency_p50"] == 3.25
    assert cols["latency_p99"] == 3.25
    assert cols["latency_max"] == 3.25
    hist = cols["latency_hist"]
    assert sum(hist) == 1
    assert hist[-1] == 1  # top edge is inclusive


def test_all_identical_latencies_degenerate_bins():
    """Every value equals the max: the whole mass sits in the top bucket."""
    cols = latency_columns([2.5] * 40)
    assert cols["latency_mean"] == 2.5
    assert cols["latency_p50"] == cols["latency_p90"] == cols["latency_p99"] == 2.5
    hist = cols["latency_hist"]
    assert sum(hist) == 40
    assert hist[-1] == 40
    assert all(c == 0 for c in hist[:-1])


def test_all_zero_latencies_spike_in_first_zero_width_bucket():
    """All-local-find cells: max == 0, the zero-width histogram still sums."""
    cols = latency_columns([0.0] * 17)
    assert cols["latency_max"] == 0.0
    hist = cols["latency_hist"]
    assert hist[0] == 17
    assert sum(hist) == 17


def test_single_zero_latency():
    cols = latency_columns([0.0])
    assert cols["latency_hist"][0] == 1
    assert cols["latency_max"] == 0.0


def test_histogram_mass_always_equals_count():
    """Float edge rounding must never drop or double-count a request."""
    vals = [0.1 * k for k in range(1, 101)] + [10.0, 10.0, 9.999999999999998]
    cols = latency_columns(vals)
    assert sum(cols["latency_hist"]) == len(vals)


def test_percentile_nearest_rank_edges():
    vals = [1.0, 2.0, 3.0, 4.0]
    assert percentile_nearest_rank(vals, 100) == 4.0
    assert percentile_nearest_rank(vals, 0.0001) == 1.0  # smallest rank is 1
    assert percentile_nearest_rank(vals, 50) == 2.0
    assert percentile_nearest_rank([7.0], 50) == 7.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile_nearest_rank([], 50)
    with pytest.raises(ValueError):
        percentile_nearest_rank([1.0], 0)
    with pytest.raises(ValueError):
        percentile_nearest_rank([1.0], 101)


def test_accumulation_order_cannot_leak():
    """Columns are functions of the multiset: any permutation agrees."""
    vals = [5.0, 0.25, 3.5, 3.5, 1.0, 0.0, 2.75]
    assert latency_columns(vals) == latency_columns(sorted(vals))
    assert latency_columns(vals) == latency_columns(sorted(vals, reverse=True))
