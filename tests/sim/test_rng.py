"""Unit tests for seeded RNG streams."""

import numpy as np

from repro.sim.rng import spawn_rng


def test_same_seed_and_name_reproduces():
    a = spawn_rng(42, "latency").random(10)
    b = spawn_rng(42, "latency").random(10)
    assert np.array_equal(a, b)


def test_different_names_differ():
    a = spawn_rng(42, "latency").random(10)
    b = spawn_rng(42, "workload").random(10)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = spawn_rng(1, "latency").random(10)
    b = spawn_rng(2, "latency").random(10)
    assert not np.array_equal(a, b)
