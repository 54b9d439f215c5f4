"""Deterministic latency-distribution summaries for sweep rows.

Sweep rows persist JSON scalars and lists only, and the byte-identity
contract (same grid + seed -> same JSONL regardless of worker count)
extends to these columns: every value below is a pure function of the
multiset of latencies, computed so accumulation order can never leak
into the output.

Percentiles use the nearest-rank definition (the smallest value with at
least ``p`` percent of the mass at or below it) — exact list indexing,
no interpolation, no float-method ambiguity across numpy versions.

The histogram uses ``bins`` equal-width buckets spanning
``[0, {prefix}max]``; the top edge is inclusive.  Only the bin *counts*
are persisted — the edges are fully determined by ``{prefix}max`` and
the bin count, and persisting derived values would only duplicate
information that must never disagree.

Internally every summary is computed from a :class:`QuantileSketch` — a
mergeable, t-digest-style centroid sketch.  Per-row sketches run in
**exact mode** (``compression=None``): the sketch is then just the
value multiset, and the derived columns are byte-identical to summaries
computed directly over the sorted latency list (a differential test
enforces this).  Cross-row aggregation — grid-level percentiles over
millions of requests — builds one sketch per row from its persisted
histogram (:meth:`QuantileSketch.from_histogram`) and merges them in a
single streaming pass; compressed sketches bound their memory at
``O(compression)`` centroids with a documented rank-error guarantee
(see :class:`QuantileSketch`).
"""

from __future__ import annotations

import math
from typing import Any, Iterable

__all__ = [
    "DEFAULT_BINS",
    "DEFAULT_COMPRESSION",
    "QuantileSketch",
    "latency_columns",
    "percentile_nearest_rank",
    "sketch_columns",
]

#: Default number of equal-width histogram buckets in sweep rows.
DEFAULT_BINS = 16

#: Default centroid budget for compressed (cross-row) sketches.  The
#: rank-error bound is ``ceil(2 n / compression)``, so 400 centroids
#: resolve grid-level percentiles to half a percentile of rank error.
DEFAULT_COMPRESSION = 400


def percentile_nearest_rank(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an already-sorted, non-empty list."""
    if not sorted_values:
        raise ValueError("percentile of an empty list")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    rank = math.ceil(p / 100.0 * len(sorted_values))
    return sorted_values[rank - 1]


class QuantileSketch:
    """Mergeable quantile sketch over a multiset of non-negative floats.

    A t-digest-style centroid sketch, pure Python and deterministic:

    * With ``compression=None`` (**exact mode**, the per-row default)
      the sketch stores the exact ``value -> count`` multiset, so every
      query — nearest-rank percentiles, mean, max, histogram — replays
      the same arithmetic as a direct computation over the sorted value
      list, bit for bit, and the state is independent of insertion
      order.
    * With an integer ``compression`` (``delta``), whenever the sketch
      holds more than ``2 * delta`` distinct centroids they are merged —
      sorted by value, then grouped greedily left to right with a
      per-group weight cap of ``ceil(2 n / delta)`` — into at most
      ``delta + 1`` weighted centroids at the group's weighted mean.

    **Accuracy guarantee (documented rank tolerance).**  Every centroid
    group's weight is at most ``ceil(2 n / compression)`` (equal values
    always share one centroid and are exempt — they carry no value
    error).  A :meth:`quantile` query answers nearest-rank over the
    centroids, so the returned value's true rank differs from the
    requested rank by at most ``ceil(2 n / compression)``; at the
    default compression of 400 that is half a percent of rank error.

    **Merge.**  ``a.merge(b)`` concatenates the centroid multisets and
    re-compresses; the combination is a pure function of the centroid
    *multiset*, so ``a.merge(b)`` equals ``b.merge(a)`` exactly.  The
    true ``max``/``min`` are carried exactly through any number of
    compressions and merges (they anchor the histogram's bucket edges).

    Values are assumed non-negative (latencies); the histogram spans
    ``[0, max]`` like the persisted sweep columns.
    """

    __slots__ = ("compression", "_weights", "_count", "_min", "_max", "_lossy")

    def __init__(self, compression: int | None = None):
        if compression is not None and compression < 8:
            raise ValueError(f"compression must be >= 8, got {compression}")
        self.compression = compression
        self._weights: dict[float, int] = {}
        self._count = 0
        self._min = math.inf
        self._max = -math.inf
        #: True once any centroid is a lossy merge of distinct values.
        self._lossy = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_values(
        cls, values: Iterable[float], *, compression: int | None = None
    ) -> "QuantileSketch":
        """Sketch of a value iterable (exact unless ``compression`` set)."""
        sk = cls(compression)
        if compression is not None:
            sk.update(values)
            return sk
        # An exact sketch never shrinks: one loop fills its multiset, leaving
        # the state that per-value add() calls would.
        weights = sk._weights
        for v in map(float, values):
            weights[v] = weights.get(v, 0) + 1
        sk._count = sum(weights.values())
        sk._min = min(weights, default=sk._min)
        sk._max = max(weights, default=sk._max)
        return sk

    @classmethod
    def from_histogram(
        cls,
        counts: list[int],
        hi: float,
        *,
        compression: int | None = None,
    ) -> "QuantileSketch":
        """Rebuild an approximate sketch from persisted histogram columns.

        Sweep rows persist only ``{prefix}hist`` (equal-width bucket
        counts on ``[0, hi]``) and ``{prefix}max`` (= ``hi``), so this is
        the bridge from stored rows back into mergeable sketches: each
        non-empty bucket becomes one centroid at the bucket midpoint.
        Ranks are exact to bucket resolution; values are within half a
        bucket width (the true ``max`` is carried exactly).  A
        degenerate ``hi <= 0`` histogram (every request a local find)
        becomes a single centroid at 0.
        """
        sk = cls(compression)
        n = sum(counts)
        if n == 0:
            return sk
        if hi <= 0.0:
            sk._record(0.0, n)
            sk._min = min(sk._min, 0.0)
            sk._max = max(sk._max, hi if n else 0.0)
            sk._lossy = True
            return sk
        width = hi / len(counts)
        for i, c in enumerate(counts):
            if c:
                sk._record((i + 0.5) * width, c)
                sk._min = min(sk._min, i * width)
        sk._max = max(sk._max, hi)
        sk._lossy = True
        sk._maybe_shrink()
        return sk

    # ------------------------------------------------------------------
    # accumulation
    # ------------------------------------------------------------------
    def _record(self, value: float, weight: int) -> None:
        self._weights[value] = self._weights.get(value, 0) + weight
        self._count += weight

    def add(self, value: float, weight: int = 1) -> None:
        """Add ``weight`` occurrences of ``value``."""
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        value = float(value)
        self._record(value, weight)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self._maybe_shrink()

    def update(self, values: Iterable[float]) -> None:
        """Add every value of an iterable."""
        for v in values:
            self.add(float(v))

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Return a new sketch summarising both inputs (commutative).

        The result's compression is the tighter (smaller) of the two
        inputs' budgets; merging an exact sketch into a compressed one
        therefore yields a compressed sketch, never an unbounded one.
        """
        if self.compression is None:
            compression = other.compression
        elif other.compression is None:
            compression = self.compression
        else:
            compression = min(self.compression, other.compression)
        out = QuantileSketch(compression)
        for sk in (self, other):
            for v, w in sk._weights.items():
                out._record(v, w)
        out._count = self._count + other._count
        out._min = min(self._min, other._min)
        out._max = max(self._max, other._max)
        out._lossy = self._lossy or other._lossy
        out._maybe_shrink()
        return out

    def _maybe_shrink(self) -> None:
        if self.compression is not None and len(self._weights) > 2 * self.compression:
            self._shrink()

    def _shrink(self) -> None:
        """Greedy capped-weight centroid merge (pure function of the state).

        Centroids are sorted by value and grouped left to right; a group
        closes before exceeding ``ceil(2 n / compression)`` total weight
        (a single over-weight centroid — one heavily duplicated value —
        stays alone, exactly).  Each group collapses to its weighted
        mean, so at most ``compression + 1`` centroids survive.
        """
        assert self.compression is not None
        cap = max(1, math.ceil(2 * self._count / self.compression))
        items = sorted(self._weights.items())
        merged: dict[float, int] = {}
        group: list[tuple[float, int]] = []
        group_w = 0

        def flush() -> None:
            nonlocal group, group_w
            if not group:
                return
            if len(group) == 1:
                v, w = group[0]
            else:
                w = group_w
                v = math.fsum(gv * gw for gv, gw in group) / w
                self._lossy = True
            merged[v] = merged.get(v, 0) + w
            group = []
            group_w = 0

        for v, w in items:
            if group and group_w + w > cap:
                flush()
            group.append((v, w))
            group_w += w
        flush()
        self._weights = merged

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Total weight (number of values summarised)."""
        return self._count

    @property
    def is_exact(self) -> bool:
        """True while no lossy centroid merge has happened."""
        return not self._lossy

    @property
    def num_centroids(self) -> int:
        return len(self._weights)

    def min_value(self) -> float:
        if self._count == 0:
            raise ValueError("min of an empty sketch")
        return self._min

    def max_value(self) -> float:
        if self._count == 0:
            raise ValueError("max of an empty sketch")
        return self._max

    def mean(self) -> float:
        """Mean of the summarised values.

        Exact sketches replay the identical left-to-right float
        accumulation as ``sum(sorted(values)) / n``, so per-row columns
        stay byte-identical; lossy sketches use the weighted centroid
        mean.
        """
        if self._count == 0:
            raise ValueError("mean of an empty sketch")
        if self._lossy:
            return math.fsum(v * w for v, w in sorted(self._weights.items())) / (
                self._count
            )
        total = 0.0
        for v, w in sorted(self._weights.items()):
            for _ in range(w):
                total += v
        return total / self._count

    def quantile(self, p: float) -> float:
        """Nearest-rank percentile over the centroids.

        Exact sketches return exactly
        ``percentile_nearest_rank(sorted(values), p)``; compressed
        sketches return a centroid mean whose true rank is within
        ``ceil(2 n / compression)`` of the requested rank.
        """
        if self._count == 0:
            raise ValueError("percentile of an empty sketch")
        if not 0 < p <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {p}")
        rank = math.ceil(p / 100.0 * self._count)
        cum = 0
        for v, w in sorted(self._weights.items()):
            cum += w
            if cum >= rank:
                return v
        return self._max  # pragma: no cover - unreachable (cum == count)

    def histogram(self, bins: int, *, hi: float | None = None) -> list[int]:
        """Equal-width bucket counts on ``[0, hi]`` (top edge inclusive).

        ``hi`` defaults to the sketch's exact max.  Exact sketches
        reproduce the persisted ``{prefix}hist`` columns bit for bit; a
        degenerate ``hi <= 0`` puts the whole mass in the first,
        zero-width bucket (the all-local-find shape).
        """
        if bins <= 0:
            raise ValueError(f"bins must be positive, got {bins}")
        counts = [0] * bins
        if self._count == 0:
            return counts
        if hi is None:
            hi = self._max
        if hi <= 0.0:
            counts[0] = self._count
            return counts
        scale = bins / hi
        for v, w in self._weights.items():
            idx = int(v * scale)
            if idx >= bins:  # v == hi (or float rounding at the top edge)
                idx = bins - 1
            counts[idx] += w
        return counts

    # ------------------------------------------------------------------
    # serialisation (store-level caching of merged sketches)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-able snapshot (canonical: centroids sorted by value)."""
        return {
            "compression": self.compression,
            "count": self._count,
            "min": None if self._count == 0 else self._min,
            "max": None if self._count == 0 else self._max,
            "lossy": self._lossy,
            "centroids": [[v, w] for v, w in sorted(self._weights.items())],
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "QuantileSketch":
        """Inverse of :meth:`to_dict`."""
        sk = cls(doc.get("compression"))
        for v, w in doc["centroids"]:
            sk._weights[float(v)] = int(w)
        sk._count = int(doc["count"])
        if sk._count:
            sk._min = float(doc["min"])
            sk._max = float(doc["max"])
        sk._lossy = bool(doc.get("lossy", bool(sk._weights)))
        return sk


def sketch_columns(
    sketch: QuantileSketch, *, bins: int = DEFAULT_BINS, prefix: str = "latency_"
) -> dict[str, Any]:
    """Summary + histogram columns derived from a sketch.

    For an exact sketch this emits byte-identical values to a direct
    computation over the sorted value list (the historical
    :func:`latency_columns` algorithm); for compressed or
    histogram-rebuilt sketches the same schema carries the documented
    approximations.  An empty sketch produces all-zero columns, so rows
    stay schema-stable for zero-request cells.
    """
    if bins <= 0:
        raise ValueError(f"bins must be positive, got {bins}")
    if sketch.count == 0:
        return {
            f"{prefix}mean": 0.0,
            f"{prefix}p50": 0.0,
            f"{prefix}p90": 0.0,
            f"{prefix}p99": 0.0,
            f"{prefix}max": 0.0,
            f"{prefix}hist": [0] * bins,
        }
    return {
        f"{prefix}mean": sketch.mean(),
        f"{prefix}p50": sketch.quantile(50),
        f"{prefix}p90": sketch.quantile(90),
        f"{prefix}p99": sketch.quantile(99),
        f"{prefix}max": sketch.max_value(),
        f"{prefix}hist": sketch.histogram(bins),
    }


def latency_columns(
    latencies: Iterable[float], *, bins: int = DEFAULT_BINS, prefix: str = "latency_"
) -> dict[str, Any]:
    """Summary + histogram columns for one run's per-request latencies.

    Returns ``{prefix}mean/p50/p90/p99/max`` scalars plus
    ``{prefix}hist``: a list of ``bins`` counts over equal-width buckets
    on ``[0, {prefix}max]`` (top edge inclusive).  Computed through an
    exact-mode :class:`QuantileSketch`, which preserves the historical
    byte-identical output for every persisted row.
    """
    if bins <= 0:
        raise ValueError(f"bins must be positive, got {bins}")
    return sketch_columns(
        QuantileSketch.from_values(latencies), bins=bins, prefix=prefix
    )
