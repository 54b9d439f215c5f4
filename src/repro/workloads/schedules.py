"""Request-schedule generators.

The paper's analysis covers *any* finite request set; these generators
produce the families used by the experiments and tests:

* **one-shot concurrent** — all requests at ``t = 0`` (the setting of the
  precursor paper [10]);
* **sequential** — requests spaced far enough apart that no two are ever
  active concurrently (the Demmer–Herlihy [4] setting: per-op cost <= D);
* **Poisson** — memoryless arrivals at a configurable aggregate rate: the
  generic "dynamic" workload;
* **bursty** — alternating high-activity windows and idle gaps, the shape
  Lemma 3.11's idle-time compression removes (an oracle beside the tests,
  ``tests/transform.py``: no table runs it);
* **hotspot** — node choice biased toward a region of the tree, modelling
  contention for a popular object.

All generators take a seed and are deterministic given their arguments.
They emit columns: the arrays they draw go to
:meth:`RequestSchedule.from_columns` as they are, with no per-request
Python object in between.  ``hotspot``'s node draws are sequential —
whether a request takes a hot or a uniform draw depends on its own coin
flip, and a single hot node draws nothing — so they come from a
:class:`~repro.sim.rng.DrawStream`, which replays the generator's scalar
draws value for value at Python-int cost.
"""

from __future__ import annotations

from repro.core.requests import RequestSchedule
from repro.errors import ScheduleError
from repro.sim.rng import DrawStream, spawn_rng

__all__ = [
    "one_shot",
    "sequential",
    "poisson",
    "bursty",
    "hotspot",
    "random_times",
]


def _check_args(num_nodes: int, *, rate: float = 1.0, **sizes: float) -> None:
    """Reject what numpy would fail on with a raw ValueError (or, for a
    zero rate, a ZeroDivisionError); a zero count or span stays legal."""
    if num_nodes <= 0:
        raise ScheduleError(f"num_nodes must name a node, got {num_nodes} nodes")
    if not rate > 0:
        raise ScheduleError(f"rate must be positive, got {rate}")
    for name, value in sizes.items():
        if not value >= 0:
            raise ScheduleError(f"{name} must be >= 0, got {value}")


def one_shot(nodes: list[int]) -> RequestSchedule:
    """Every listed node issues one request at time 0 (concurrent case)."""
    return RequestSchedule.from_columns(nodes, [0.0] * len(nodes))


def sequential(nodes: list[int], gap: float) -> RequestSchedule:
    """One request per listed node, ``gap`` time units apart from time 0.

    Choose ``gap > 2 D`` to guarantee the sequential regime (each request
    completes before the next is issued, whatever the pair of nodes).
    """
    if gap <= 0:
        raise ScheduleError(f"gap must be positive, got {gap}")
    return RequestSchedule(
        [(v, i * gap) for i, v in enumerate(nodes)]
    )


def poisson(
    num_nodes: int,
    count: int,
    rate: float,
    *,
    seed: int = 0,
) -> RequestSchedule:
    """``count`` requests with exponential inter-arrival times.

    ``rate`` is the aggregate arrival rate (requests per time unit);
    issuing nodes are uniform over all nodes.
    """
    import numpy as np

    _check_args(num_nodes, count=count, rate=rate)
    rng = spawn_rng(seed, f"poisson-{num_nodes}-{count}-{rate}")
    times = np.cumsum(rng.exponential(1.0 / rate, size=count))
    picks = rng.integers(0, num_nodes, size=count)
    return RequestSchedule.from_columns(picks, times)


def bursty(
    num_nodes: int,
    bursts: int,
    burst_size: int,
    burst_span: float,
    idle_gap: float,
    *,
    seed: int = 0,
) -> RequestSchedule:
    """Alternating activity bursts and idle periods.

    Each burst issues ``burst_size`` requests at uniform random times
    within a ``burst_span`` window from uniform random nodes; bursts are
    separated by ``idle_gap``.
    """
    _check_args(
        num_nodes, bursts=bursts, burst_size=burst_size, burst_span=burst_span, idle_gap=idle_gap
    )
    rng = spawn_rng(seed, f"bursty-{num_nodes}-{bursts}-{burst_size}")
    nodes: list[int] = []
    times: list[float] = []
    t0 = 0.0
    for _ in range(bursts):
        times.extend((t0 + rng.uniform(0.0, burst_span, size=burst_size)).tolist())
        nodes.extend(rng.integers(0, num_nodes, size=burst_size).tolist())
        t0 += burst_span + idle_gap
    return RequestSchedule.from_columns(nodes, times)


def hotspot(
    num_nodes: int,
    count: int,
    rate: float,
    hot_nodes: list[int],
    hot_fraction: float = 0.8,
    *,
    seed: int = 0,
) -> RequestSchedule:
    """Poisson arrivals with node choice biased toward ``hot_nodes``."""
    if not 0.0 <= hot_fraction <= 1.0:
        raise ScheduleError(f"hot_fraction must be in [0, 1], got {hot_fraction}")
    if not hot_nodes:
        raise ScheduleError("hot_nodes must be non-empty")
    import numpy as np

    _check_args(num_nodes, count=count, rate=rate)
    rng = spawn_rng(seed, f"hotspot-{num_nodes}-{count}")
    times = np.cumsum(rng.exponential(1.0 / rate, size=count))
    draws = DrawStream(rng)
    coin = draws.random
    pick = draws.integers
    hot = len(hot_nodes)
    nodes = [
        hot_nodes[pick(hot)] if coin() < hot_fraction else pick(num_nodes)
        for _ in range(count)
    ]
    return RequestSchedule.from_columns(nodes, times)


def random_times(
    num_nodes: int,
    count: int,
    horizon: float,
    *,
    seed: int = 0,
) -> RequestSchedule:
    """Uniform random (node, time) pairs over ``[0, horizon]``.

    The times are real-valued, which makes cost ties measure-zero — the
    regime where the fast NN executor must match the simulator exactly
    (used heavily by the integration tests).
    """
    _check_args(num_nodes, count=count, horizon=horizon)
    rng = spawn_rng(seed, f"random-{num_nodes}-{count}-{horizon}")
    picks = rng.integers(0, num_nodes, size=count)
    times = rng.uniform(0.0, horizon, size=count)
    return RequestSchedule.from_columns(picks, times)
