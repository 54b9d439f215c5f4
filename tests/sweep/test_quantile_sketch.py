"""The mergeable quantile sketch behind every latency column.

Two contracts matter, and both are differential:

* **Exact mode is the historical algorithm, byte for byte.**  Per-row
  columns now route through an exact-mode :class:`QuantileSketch`, so a
  vendored copy of the original direct computation must agree with
  :func:`latency_columns` on every corpus — including the float-rounding
  and accumulation-order traps.  Any drift here would change persisted
  JSONL bytes and break the engines' bit-identity contract.
* **Compressed mode has a documented rank tolerance.**  A quantile
  query on a sketch with compression ``delta`` returns a value whose
  true rank is within ``ceil(2 n / delta)`` of the requested rank, and
  merging is exactly commutative (pure function of the centroid
  multiset) — the property the store's streaming grid aggregation
  relies on.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.sweep.stats import (
    DEFAULT_BINS,
    QuantileSketch,
    latency_columns,
    percentile_nearest_rank,
)


def direct_columns(latencies, *, bins=DEFAULT_BINS, prefix="latency_"):
    """The pre-sketch implementation, vendored verbatim as the oracle."""
    vals = sorted(float(x) for x in latencies)
    n = len(vals)
    if n == 0:
        return {
            f"{prefix}mean": 0.0,
            f"{prefix}p50": 0.0,
            f"{prefix}p90": 0.0,
            f"{prefix}p99": 0.0,
            f"{prefix}max": 0.0,
            f"{prefix}hist": [0] * bins,
        }
    mx = vals[-1]
    counts = [0] * bins
    if mx <= 0.0:
        counts[0] = n
    else:
        scale = bins / mx
        for v in vals:
            idx = int(v * scale)
            if idx >= bins:
                idx = bins - 1
            counts[idx] += 1
    return {
        f"{prefix}mean": sum(vals) / n,
        f"{prefix}p50": percentile_nearest_rank(vals, 50),
        f"{prefix}p90": percentile_nearest_rank(vals, 90),
        f"{prefix}p99": percentile_nearest_rank(vals, 99),
        f"{prefix}max": mx,
        f"{prefix}hist": counts,
    }


def corpora():
    """Latency lists covering the shapes real cells produce."""
    rng = random.Random(0xC0FFEE)
    yield []
    yield [0.0]
    yield [3.25]
    yield [2.5] * 40
    yield [0.0] * 17
    yield [0.1 * k for k in range(1, 101)] + [10.0, 10.0, 9.999999999999998]
    for trial in range(30):
        n = rng.randrange(1, 400)
        shape = trial % 3
        if shape == 0:
            yield [rng.expovariate(1.0) for _ in range(n)]
        elif shape == 1:
            # Heavy duplication: integer-ish latencies (hop counts).
            yield [float(rng.randrange(0, 8)) for _ in range(n)]
        else:
            yield [rng.uniform(0.0, 50.0) for _ in range(n)]


def test_exact_mode_matches_direct_computation_byte_for_byte():
    for vals in corpora():
        assert latency_columns(vals) == direct_columns(vals)


def test_exact_mode_is_insertion_order_independent():
    vals = [random.Random(7).expovariate(1.0) for _ in range(200)]
    fwd = QuantileSketch.from_values(vals)
    rev = QuantileSketch.from_values(reversed(sorted(vals)))
    assert fwd.to_dict() == rev.to_dict()
    assert fwd.mean() == sum(sorted(vals)) / len(vals)


def test_exact_merge_equals_single_sketch():
    rng = random.Random(11)
    a = [rng.uniform(0, 10) for _ in range(150)]
    b = [rng.uniform(0, 10) for _ in range(77)]
    merged = QuantileSketch.from_values(a).merge(QuantileSketch.from_values(b))
    assert merged.to_dict() == QuantileSketch.from_values(a + b).to_dict()


@pytest.mark.parametrize("compression", [16, 100, 400])
def test_compressed_rank_error_within_documented_bound(compression):
    """≥10k samples: every queried percentile honours ceil(2n/delta)."""
    rng = random.Random(42)
    vals = [rng.expovariate(0.5) for _ in range(12_000)]
    sk = QuantileSketch.from_values(vals, compression=compression)
    assert sk.num_centroids <= 2 * compression
    n = len(vals)
    tol = math.ceil(2 * n / compression)
    svals = sorted(vals)
    for p in (1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9):
        rank = math.ceil(p / 100.0 * n)
        got = sk.quantile(p)
        # True rank range of the returned value (duplicates inclusive).
        lo = next(i for i, v in enumerate(svals) if v >= got)
        hi = n - next(i for i, v in enumerate(reversed(svals)) if v <= got)
        assert lo - tol <= rank <= hi + tol, (
            f"p{p}: value {got} has true rank [{lo + 1}, {hi}], "
            f"requested {rank}, tolerance {tol}"
        )


def test_compressed_merge_is_commutative():
    rng = random.Random(99)
    a = QuantileSketch.from_values(
        (rng.uniform(0, 100) for _ in range(5_000)), compression=64
    )
    b = QuantileSketch.from_values(
        (rng.expovariate(1.0) for _ in range(5_000)), compression=64
    )
    ab, ba = a.merge(b), b.merge(a)
    assert ab.to_dict() == ba.to_dict()
    assert ab.count == 10_000
    assert ab.max_value() == max(a.max_value(), b.max_value())
    assert ab.min_value() == min(a.min_value(), b.min_value())


def test_merge_takes_the_tighter_compression():
    exact = QuantileSketch.from_values([1.0, 2.0])
    loose = QuantileSketch.from_values([3.0], compression=100)
    tight = QuantileSketch.from_values([4.0], compression=16)
    assert exact.merge(loose).compression == 100
    assert loose.merge(exact).compression == 100
    assert loose.merge(tight).compression == 16


def test_exact_max_survives_compression_and_merging():
    rng = random.Random(5)
    shards = [
        QuantileSketch.from_values(
            (rng.uniform(0, 100) for _ in range(1_000)), compression=32
        )
        for _ in range(8)
    ]
    merged = shards[0]
    for s in shards[1:]:
        merged = merged.merge(s)
    assert merged.count == 8_000
    assert merged.max_value() == max(s.max_value() for s in shards)
    assert not merged.is_exact


def test_from_histogram_reconstructs_to_bucket_resolution():
    rng = random.Random(13)
    vals = [rng.expovariate(1.0) for _ in range(2_000)]
    cols = latency_columns(vals)
    sk = QuantileSketch.from_histogram(cols["latency_hist"], cols["latency_max"])
    assert sk.count == len(vals)
    assert sk.max_value() == cols["latency_max"]
    width = cols["latency_max"] / DEFAULT_BINS
    svals = sorted(vals)
    for p in (50.0, 90.0, 99.0):
        true = percentile_nearest_rank(svals, p)
        assert abs(sk.quantile(p) - true) <= width, f"p{p} off by > 1 bucket"


def test_from_histogram_degenerate_all_zero_max():
    sk = QuantileSketch.from_histogram([17] + [0] * 15, 0.0)
    assert sk.count == 17
    assert sk.quantile(50) == 0.0
    assert QuantileSketch.from_histogram([0] * 16, 0.0).count == 0


def test_single_overweight_value_stays_exact_under_compression():
    """One heavily-duplicated value must never smear into neighbours."""
    sk = QuantileSketch(compression=8)
    sk.add(5.0, weight=10_000)
    for k in range(100):
        sk.add(float(k) / 10.0)
    assert sk.quantile(50) == 5.0


def test_serialisation_round_trip():
    rng = random.Random(3)
    for compression in (None, 32):
        sk = QuantileSketch.from_values(
            (rng.uniform(0, 9) for _ in range(500)), compression=compression
        )
        clone = QuantileSketch.from_dict(sk.to_dict())
        assert clone.to_dict() == sk.to_dict()
        assert clone.quantile(90) == sk.quantile(90)
        assert clone.mean() == sk.mean()
    empty = QuantileSketch.from_dict(QuantileSketch().to_dict())
    assert empty.count == 0


def test_empty_and_invalid_inputs_raise():
    sk = QuantileSketch()
    with pytest.raises(ValueError):
        sk.quantile(50)
    with pytest.raises(ValueError):
        sk.mean()
    with pytest.raises(ValueError):
        sk.max_value()
    with pytest.raises(ValueError):
        sk.add(1.0, weight=0)
    with pytest.raises(ValueError):
        QuantileSketch(compression=4)
    with pytest.raises(ValueError):
        QuantileSketch.from_values([1.0]).quantile(0)


def test_histogram_mass_conserved_under_compression():
    rng = random.Random(21)
    sk = QuantileSketch.from_values(
        (rng.uniform(0, 30) for _ in range(10_000)), compression=50
    )
    assert sum(sk.histogram(DEFAULT_BINS)) == 10_000


# ----------------------------------------------------------------------
# the bulk exact constructor is the per-value sketch
# ----------------------------------------------------------------------
BULK_CASES = {
    "empty": [],
    "one": [3.25],
    "zeros": [0.0] * 17,
    "all-equal": [2.5] * 40,
    "ties": [1.0, 0.0, 1.0, 2.0, 0.0, 1.0, 7.5, 7.5],
    "signed-zero": [-0.0, 0.0, 1.0],
    "ints": [3, 1, 1, 0, 2],
    "mixed": random.Random(3).choices([0.0, 0.1, 0.1 * 3, 5.0], k=300),
}


def fed_by_add(values, compression=None):
    sk = QuantileSketch(compression)
    for v in values:
        sk.add(v)
    return sk


@pytest.mark.parametrize("case", sorted(BULK_CASES))
def test_bulk_exact_sketch_is_the_per_value_sketch(case):
    xs = BULK_CASES[case]
    bulk = QuantileSketch.from_values(xs)
    assert bulk.to_dict() == fed_by_add(xs).to_dict()
    assert bulk.count == len(xs) and bulk.is_exact
    assert latency_columns(xs) == direct_columns(xs)
    # A generator can be walked once only: the bulk path must not need twice.
    assert QuantileSketch.from_values(x for x in xs).to_dict() == bulk.to_dict()
    assert latency_columns(x for x in xs) == direct_columns(xs)
    # Still an ordinary sketch afterwards: adding and merging work on it.
    grown = QuantileSketch.from_values(xs)
    grown.add(9.0)
    assert grown.to_dict() == fed_by_add([*xs, 9.0]).to_dict()
    assert bulk.merge(bulk).to_dict() == fed_by_add([*xs, *xs]).to_dict()


def test_bulk_constructor_with_compression_still_shrinks_through_add():
    rng = random.Random(5)
    xs = [rng.expovariate(1.0) for _ in range(500)]
    sk = QuantileSketch.from_values(xs, compression=50)
    assert sk.to_dict() == fed_by_add(xs, compression=50).to_dict()
    assert sk.num_centroids <= 2 * 50 and not sk.is_exact
