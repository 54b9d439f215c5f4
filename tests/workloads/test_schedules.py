"""Unit tests for workload generators."""

import hashlib

import pytest

from repro.errors import ScheduleError
from repro.workloads.schedules import (
    bursty,
    hotspot,
    one_shot,
    poisson,
    random_times,
    sequential,
)


def test_one_shot_all_at_zero():
    s = one_shot([3, 1, 4])
    assert all(r.time == 0.0 for r in s)
    assert sorted(r.node for r in s) == [1, 3, 4]


def test_sequential_spacing():
    s = sequential([0, 1, 2], gap=5.0)
    assert s.times == [0.0, 5.0, 10.0]
    with pytest.raises(ScheduleError):
        sequential([0], gap=0.0)


def test_poisson_count_rate_and_determinism():
    a = poisson(10, 50, rate=2.0, seed=3)
    b = poisson(10, 50, rate=2.0, seed=3)
    assert len(a) == 50
    assert a.times == b.times and a.nodes == b.nodes
    # Mean inter-arrival should be near 1/rate.
    gaps = [t2 - t1 for t1, t2 in zip(a.times, a.times[1:])]
    assert 0.2 < sum(gaps) / len(gaps) < 1.2
    with pytest.raises(ScheduleError):
        poisson(10, 5, rate=0.0)


def test_bursty_structure():
    s = bursty(8, bursts=3, burst_size=5, burst_span=2.0, idle_gap=20.0, seed=2)
    assert len(s) == 15
    times = s.times
    # Requests cluster in three windows separated by > idle_gap/2.
    assert max(times) >= 2 * (2.0 + 20.0)
    with pytest.raises(ScheduleError):
        bursty(8, 1, 1, -1.0, 0.0)


def test_hotspot_bias():
    s = hotspot(20, 300, rate=5.0, hot_nodes=[0, 1], hot_fraction=0.9, seed=4)
    hot = sum(1 for n in s.nodes if n in (0, 1))
    assert hot > 200
    with pytest.raises(ScheduleError):
        hotspot(20, 10, 1.0, [], 0.5)
    with pytest.raises(ScheduleError):
        hotspot(20, 10, 1.0, [0], 1.5)


def test_random_times_are_real_valued_within_horizon():
    c = random_times(10, 40, horizon=20.0, seed=5)
    assert any(t != int(t) for t in c.times)
    assert all(0 <= t <= 20.0 for t in c.times)


def test_random_times_deterministic():
    a = random_times(10, 20, horizon=5.0, seed=8)
    b = random_times(10, 20, horizon=5.0, seed=8)
    assert a.times == b.times and a.nodes == b.nodes


# ----------------------------------------------------------------------
# RNG-draw-order guard: the generated columns, pinned
# ----------------------------------------------------------------------
# SHA-256 of ``repr((s.nodes, s.times))``, recorded from the pair-based
# generators before they were made columnar.  A reordered, added or
# vectorised RNG call, a numpy scalar leaking into a column or a changed
# tie order moves a digest.
PINNED_COLUMNS = {
    "one_shot-a": (
        lambda: one_shot([3, 1, 4, 1, 5]),
        "cf5c45e8539e0d317b4348e095139e6eb42fad28fb122f458eb82d152349ed4c",
    ),
    "one_shot-b": (
        lambda: one_shot(list(range(40))),
        "fd8c508f25d1ffe4fc7f735b839c26c95e1bf026d00b3f85b78b7406d0f9bd1d",
    ),
    "sequential-b": (
        lambda: sequential(list(range(9, -1, -1)), gap=0.1),
        "0594712ddcd2600ac7bd2c168ea5708e2d0ad961babf529281d703d718c4ec9f",
    ),
    "poisson-0": (
        lambda: poisson(16, 200, 8.0, seed=0),
        "0fe61d9962022bd20b114d084ceb850a83651a8cbdc1a7fd9199fc601145003e",
    ),
    "poisson-7": (
        lambda: poisson(16, 200, 8.0, seed=7),
        "398ff453892823f562fc7494da505b5fd51ae553c142a24de1559aefbc9691bc",
    ),
    "bursty-0": (
        lambda: bursty(12, 4, 25, 2.0, 30.0, seed=0),
        "ad2caa90868d621a64f50f1173910c45c859834087e9929b11ef8fd4426e6cef",
    ),
    "bursty-7": (
        lambda: bursty(12, 4, 25, 2.0, 30.0, seed=7),
        "892560ce5d483dd26c8ed025338a095b8b4be4ec582de6d9d3ff88f2ae2f8cc9",
    ),
    "hotspot-0": (
        lambda: hotspot(20, 150, 5.0, [0, 3], 0.8, seed=0),
        "66e6bee059b80e58c18c52f79e63eddab3e89fcd04dff067fd6e6e694f98b94b",
    ),
    "hotspot-7": (
        lambda: hotspot(20, 150, 5.0, [0, 3], 0.8, seed=7),
        "7cfc8a1cb22dcc86ab93ce249079cee256432a348e08d4a9733722d5502cb309",
    ),
    "random-0": (
        lambda: random_times(10, 150, 20.0, seed=0),
        "1598e2c2a0300fdf3c4610b0a6e53e7e2f54acd6d9174afc642f157b4d5cc07b",
    ),
    "random-7": (
        lambda: random_times(10, 150, 20.0, seed=7),
        "802112e2c9b0165e61c15ca04af332cc9df14d06d21168d015e12e763fa4764f",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_COLUMNS))
def test_generated_columns_are_pinned(case):
    make, digest = PINNED_COLUMNS[case]
    s = make()
    assert hashlib.sha256(repr((s.nodes, s.times)).encode()).hexdigest() == digest
    # Plain Python scalars only: a numpy scalar would reach the JSONL rows.
    assert {type(v) for v in s.nodes} == {int}
    assert {type(t) for t in s.times} == {float}


# ----------------------------------------------------------------------
# argument checks: ScheduleError, not a raw numpy / arithmetic error
# ----------------------------------------------------------------------
BAD_ARGUMENTS = {
    "hotspot-rate-zero": (lambda: hotspot(4, 5, 0.0, [0]), "rate.*0.0"),  # ZeroDivisionError
    "hotspot-rate-negative": (lambda: hotspot(4, 5, -1.0, [0]), "rate.*-1.0"),  # "scale < 0"
    "hotspot-count": (lambda: hotspot(4, -5, 1.0, [0]), "count.*-5"),
    "hotspot-no-nodes": (lambda: hotspot(0, 5, 1.0, [0], 0.5), "num_nodes.*0"),
    "poisson-count": (lambda: poisson(4, -1, 1.0), "count.*-1"),  # "negative dimensions"
    "poisson-no-nodes": (lambda: poisson(0, 5, 1.0), "num_nodes.*0"),
    "poisson-rate-negative": (lambda: poisson(4, 5, -2.0), "rate.*-2.0"),
    "poisson-rate-nan": (lambda: poisson(4, 5, float("nan")), "rate.*nan"),
    "random-horizon": (lambda: random_times(4, 3, -1.0), "horizon.*-1.0"),  # "high - low < 0"
    "random-count": (lambda: random_times(4, -3, 1.0), "count.*-3"),
    "random-no-nodes": (lambda: random_times(0, 3, 1.0), "num_nodes.*0"),
    "bursty-bursts": (lambda: bursty(4, -1, 3, 1.0, 1.0), "bursts.*-1"),
    "bursty-burst-size": (lambda: bursty(4, 2, -3, 1.0, 1.0), "burst_size.*-3"),
    "bursty-no-nodes": (lambda: bursty(0, 2, 3, 1.0, 1.0), "num_nodes.*0"),
    "bursty-span": (lambda: bursty(4, 2, 3, -1.0, 1.0), "burst_span.*-1.0"),
    "bursty-gap": (lambda: bursty(4, 2, 3, 1.0, -0.5), "idle_gap.*-0.5"),
}


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_bad_generator_arguments_raise_schedule_error(case):
    """Each used to leak the raw numpy / arithmetic error in the comment;
    the ScheduleError carries the argument's name and value."""
    build, names = BAD_ARGUMENTS[case]
    with pytest.raises(ScheduleError, match=names):
        build()


def test_empty_schedules_stay_legal():
    assert len(poisson(4, 0, 1.0)) == 0
    assert len(bursty(4, 0, 3, 1.0, 1.0)) == 0
    assert len(bursty(4, 3, 0, 1.0, 1.0)) == 0
    assert len(hotspot(4, 0, 1.0, [0])) == 0
    assert len(random_times(4, 0, 1.0)) == 0
    assert len(random_times(4, 3, 0.0)) == 3  # a zero horizon is one instant
    assert len(one_shot([])) == 0
