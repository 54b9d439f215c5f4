"""Latency models only tests run, beside ``tests/small_models.py``.

``repro.net.latency`` keeps the models a grid or the command-line
interface runs; these two are what the parity suites, the exhaustive
corpus and the asynchronous checks drive the engines with:

* :class:`ScaledWeightLatency` — deterministic, ``factor * weight``, so a
  weighted tree's delays are not its weights;
* :class:`ExponentialCappedLatency` — exponential delays truncated to
  ``[floor, cap] * weight``: slow stragglers within the §3.8 bound.
"""

from __future__ import annotations

from repro.errors import NetworkError
from repro.net.latency import LatencyModel


class ScaledWeightLatency(LatencyModel):
    """Deterministic model: delay is ``factor * weight``."""

    def __init__(self, factor: float) -> None:
        if factor <= 0:
            raise NetworkError(f"latency factor must be positive, got {factor}")
        self.factor = float(factor)

    def sample(self, src, dst, weight, rng) -> float:  # noqa: D102
        return self.factor * weight

    def max_delay(self, weight: float) -> float:  # noqa: D102
        return self.factor * weight


class ExponentialCappedLatency(LatencyModel):
    """Asynchronous model: exponential delays truncated to ``[floor, cap]``.

    Mimics heavy-ish tails (slow stragglers) while keeping the normalised
    "delay <= cap * weight" guarantee the asynchronous analysis assumes.
    """

    stochastic = True

    def __init__(self, mean: float = 0.3, cap: float = 1.0, floor: float = 0.01) -> None:
        if not 0 < floor <= cap:
            raise NetworkError(f"need 0 < floor <= cap, got {floor}, {cap}")
        if mean <= 0:
            raise NetworkError(f"mean must be positive, got {mean}")
        self.mean = float(mean)
        self.cap = float(cap)
        self.floor = float(floor)

    def sample(self, src, dst, weight, rng) -> float:  # noqa: D102
        raw = rng.exponential(self.mean)
        return weight * min(max(raw, self.floor), self.cap)

    def max_delay(self, weight: float) -> float:  # noqa: D102
        return self.cap * weight
