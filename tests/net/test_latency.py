"""Unit tests for latency models."""

import pytest

from repro.errors import NetworkError
from repro.net.latency import UniformLatency, UnitLatency, WeightLatency
from repro.sim.rng import spawn_rng
from latency_models import ExponentialCappedLatency, ScaledWeightLatency


@pytest.fixture
def rng():
    return spawn_rng(0, "latency-tests")


def test_unit_latency_always_one(rng):
    m = UnitLatency()
    assert m.sample(0, 1, 7.5, rng) == 1.0
    assert m.max_delay(7.5) == 1.0
    assert not m.stochastic


def test_weight_latency_returns_weight(rng):
    m = WeightLatency()
    assert m.sample(0, 1, 2.5, rng) == 2.5
    assert m.max_delay(2.5) == 2.5


def test_scaled_weight_latency(rng):
    m = ScaledWeightLatency(0.5)
    assert m.sample(0, 1, 4.0, rng) == 2.0
    assert m.max_delay(4.0) == 2.0


def test_scaled_weight_rejects_nonpositive_factor():
    with pytest.raises(NetworkError):
        ScaledWeightLatency(0.0)


def test_uniform_latency_within_bounds(rng):
    m = UniformLatency(0.2, 1.0)
    samples = [m.sample(0, 1, 3.0, rng) for _ in range(500)]
    assert all(0.6 - 1e-12 <= s <= 3.0 + 1e-12 for s in samples)
    assert m.max_delay(3.0) == 3.0
    assert m.stochastic


def test_uniform_latency_validates_range():
    with pytest.raises(NetworkError):
        UniformLatency(0.0, 1.0)
    with pytest.raises(NetworkError):
        UniformLatency(0.9, 0.5)


def test_exponential_capped_within_bounds(rng):
    m = ExponentialCappedLatency(mean=0.3, cap=1.0, floor=0.05)
    samples = [m.sample(0, 1, 2.0, rng) for _ in range(500)]
    assert all(0.1 - 1e-12 <= s <= 2.0 + 1e-12 for s in samples)
    assert m.max_delay(2.0) == 2.0


def test_exponential_capped_validates():
    with pytest.raises(NetworkError):
        ExponentialCappedLatency(mean=-1.0)
    with pytest.raises(NetworkError):
        ExponentialCappedLatency(floor=2.0, cap=1.0)


def test_stochastic_models_respect_normalised_max_delay(rng):
    """§3.8: the analysis scales delays so the slowest message takes 1."""
    for model in (UniformLatency(0.1, 1.0), ExponentialCappedLatency()):
        for _ in range(200):
            assert model.sample(0, 1, 1.0, rng) <= model.max_delay(1.0) + 1e-12
