"""Latency models for network links.

The paper analyses two communication models:

* **synchronous** (§3.1): every edge has unit latency and messages are
  processed immediately on arrival — :class:`UnitLatency`;
* **asynchronous** (§3.8): message delays are arbitrary but, for the
  analysis, scaled so the slowest message between adjacent nodes takes one
  time unit — :class:`UniformLatency` produces such executions.

The delay models only tests run (a scaled weight and a capped
exponential) live beside the test oracles, in ``tests/latency_models.py``.

A latency model maps ``(src, dst, edge_weight, rng)`` to a delay sample.
Deterministic models ignore the RNG.  Nothing reorders the samples: a
later message on a link may draw the smaller delay and arrive first,
which arrow never meets because no tree edge carries two of its queue
messages at once.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

from repro.errors import NetworkError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "LatencyModel",
    "UnitLatency",
    "WeightLatency",
    "UniformLatency",
]


class LatencyModel(ABC):
    """Strategy object producing per-message link delays."""

    #: True when the model can produce different delays for identical sends
    #: (used by tests to decide which invariants apply).
    stochastic: bool = False

    @abstractmethod
    def sample(
        self, src: int, dst: int, weight: float, rng: np.random.Generator
    ) -> float:
        """Delay for one message crossing link ``src -> dst``."""

    def max_delay(self, weight: float) -> float:
        """Upper bound on any sample for a link of the given weight.

        The asynchronous analysis (§3.8) normalises delays so this bound is
        the "one time unit"; tests use it to check executions respect it.
        """
        return weight


class UnitLatency(LatencyModel):
    """Synchronous model: every link takes exactly one time unit."""

    def sample(self, src, dst, weight, rng) -> float:  # noqa: D102
        return 1.0

    def max_delay(self, weight: float) -> float:  # noqa: D102
        return 1.0


class WeightLatency(LatencyModel):
    """Deterministic model: delay equals the link's weight."""

    def sample(self, src, dst, weight, rng) -> float:  # noqa: D102
        return weight


class UniformLatency(LatencyModel):
    """Asynchronous model: delay uniform in ``[lo, hi] * weight``.

    With ``hi = 1`` this realises the paper's normalised asynchronous
    executions: every message arrives within one (weighted) time unit.
    """

    stochastic = True

    def __init__(self, lo: float = 0.1, hi: float = 1.0) -> None:
        if not 0 < lo <= hi:
            raise NetworkError(f"need 0 < lo <= hi, got lo={lo}, hi={hi}")
        self.lo = float(lo)
        self.hi = float(hi)

    def sample(self, src, dst, weight, rng) -> float:  # noqa: D102
        return weight * rng.uniform(self.lo, self.hi)

    def max_delay(self, weight: float) -> float:  # noqa: D102
        return self.hi * weight
