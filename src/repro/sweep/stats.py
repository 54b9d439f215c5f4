"""Deterministic latency-distribution summaries for sweep rows.

Sweep rows persist JSON scalars and lists only, and the byte-identity
contract (same grid + seed -> same JSONL regardless of worker count or
interpreter) extends to these columns: :func:`latency_columns` sorts the
run's latencies once and reads every column off that list, so each is a
pure function of the multiset of latencies.

Percentiles use the nearest-rank definition (the smallest value with at
least ``p`` percent of the mass at or below it) — exact list indexing,
no interpolation.  The mean is one left-to-right accumulation over the
sorted list, never the builtin ``sum`` (compensated since CPython 3.12).

The histogram uses ``DEFAULT_BINS`` equal-width buckets spanning
``[0, latency_max]``; the top edge is inclusive.  Only the bin *counts*
are persisted — the edges are fully determined by ``latency_max`` and
the bin count.

Grid-level percentiles over stored rows come from those two columns
alone: :class:`MidpointCounts` puts each bucket's count at the bucket
midpoint and answers nearest-rank over the midpoints — ranks exact to
bucket resolution, values within half a bucket width, the max exact.

This module imports nothing outside the standard library (the
interpreter cross-check loads it by file path).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Iterable

__all__ = [
    "DEFAULT_BINS",
    "MidpointCounts",
    "latency_columns",
    "percentile_nearest_rank",
]

#: Number of equal-width histogram buckets in sweep rows.
DEFAULT_BINS = 16


def _nearest_rank(p: float, n: int) -> int:
    """1-based nearest rank of the ``p``-th percentile among ``n`` values."""
    if n == 0:
        raise ValueError("percentile of an empty list")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    return math.ceil(p / 100.0 * n)


def percentile_nearest_rank(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an already-sorted, non-empty list."""
    return sorted_values[_nearest_rank(p, len(sorted_values)) - 1]


def latency_columns(latencies: Iterable[float]) -> dict[str, Any]:
    """Summary + histogram columns for one run's per-request latencies.

    Returns ``latency_mean/p50/p90/p99/max`` scalars plus
    ``latency_hist``: ``DEFAULT_BINS`` counts over equal-width buckets on
    ``[0, latency_max]`` (top edge inclusive).  No latencies produce
    all-zero columns, so rows stay schema-stable for zero-request cells;
    all-zero latencies (every request a local find) put the whole mass
    in the first, zero-width bucket.
    """
    vals = sorted(map(float, latencies))
    n = len(vals)
    hist = [0] * DEFAULT_BINS
    if n == 0:
        return {
            "latency_mean": 0.0,
            "latency_p50": 0.0,
            "latency_p90": 0.0,
            "latency_p99": 0.0,
            "latency_max": 0.0,
            "latency_hist": hist,
        }
    total = 0.0
    for v in vals:
        total += v
    hi = vals[-1]
    if hi <= 0.0:
        hist[0] = n
    else:
        scale = DEFAULT_BINS / hi

        def bucket(v: float) -> int:
            return int(v * scale)

        # The bucket index is non-decreasing along the sorted list, so
        # each bucket is one bisected run; the last also takes the top
        # edge (v == hi, or float rounding just above it).
        start = 0
        for b in range(DEFAULT_BINS - 1):
            end = bisect_left(vals, b + 1, start, key=bucket)
            hist[b] = end - start
            start = end
        hist[-1] = n - start
    return {
        "latency_mean": total / n,
        "latency_p50": percentile_nearest_rank(vals, 50),
        "latency_p90": percentile_nearest_rank(vals, 90),
        "latency_p99": percentile_nearest_rank(vals, 99),
        "latency_max": hi,
        "latency_hist": hist,
    }


class MidpointCounts:
    """Latency percentiles of many rows, rebuilt from their histograms.

    Rows persist only ``latency_hist`` and ``latency_max``, so each
    non-empty bucket is counted at its midpoint; one dict entry per
    distinct midpoint is all the state there is.
    """

    def __init__(self) -> None:
        self.count = 0
        self._weights: dict[float, int] = {}
        self._max = -math.inf

    def add_histogram(self, counts: list[int], hi: float) -> None:
        """Add one row's bucket counts on ``[0, hi]`` (``hi`` its max)."""
        n = sum(counts)
        if n == 0:
            return
        weights = self._weights
        if hi <= 0.0:  # every request a local find: one spike at zero
            weights[0.0] = weights.get(0.0, 0) + n
        else:
            width = hi / len(counts)
            for i, c in enumerate(counts):
                if c:
                    mid = (i + 0.5) * width
                    weights[mid] = weights.get(mid, 0) + c
        self.count += n
        self._max = max(self._max, hi)

    def quantile(self, p: float) -> float:
        """Nearest-rank percentile over the bucket midpoints."""
        rank = _nearest_rank(p, self.count)
        for mid, weight in sorted(self._weights.items()):
            rank -= weight
            if rank <= 0:
                return mid
        raise AssertionError("weights sum to count")  # pragma: no cover

    def max_value(self) -> float:
        """The largest ``hi`` added — the grid's true maximum latency."""
        if self.count == 0:
            raise ValueError("max of an empty list")
        return self._max
