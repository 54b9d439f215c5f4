"""Queuing requests and request schedules.

Following §3.1 of the paper, a queuing request is an ordered pair
``(v, t)``: the node where it is issued and the issue time.  The requests of
a schedule are canonically indexed in non-decreasing time order (ties broken
arbitrarily but deterministically — the index is "just a convenient way for
indexing", never used by the algorithm).

The **virtual root request** ``r_0 = (root, 0)`` represents the initial
queue tail held by the root; it carries the reserved id
:data:`ROOT_RID` and is the start of every queuing order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Iterable, Iterator, Sequence

from repro.errors import ScheduleError

__all__ = ["ROOT_RID", "NO_RID", "Request", "RequestSchedule"]

#: Reserved id of the virtual root request (start of the queue).
ROOT_RID = -1
#: Reserved id meaning "no request" (the paper's ⊥ for ``id(v)``).
NO_RID = -2


@dataclass(frozen=True, slots=True)
class Request:
    """One queuing request ``(v, t)`` with its canonical id.

    ``rid`` is the request's index in its schedule's canonical order
    (0-based); the virtual root request uses :data:`ROOT_RID` instead.
    """

    node: int
    time: float
    rid: int

    def __post_init__(self) -> None:
        if not 0 <= self.time < math.inf:  # a NaN fails both comparisons
            raise ScheduleError(f"request time must be finite and >= 0, got {self.time}")


class RequestSchedule:
    """An immutable, canonically ordered set of queuing requests.

    Stored as two parallel columns in canonical order — issuing nodes and
    issue times, plain ``int`` / ``float`` lists — so a request's ``rid``
    *is* its index.  :attr:`nodes` and :attr:`times` return the schedule's
    own lists (the fast engine reads them in place) and must not be
    mutated.  :class:`Request` objects are views made on demand by
    iteration, indexing and :meth:`by_rid`.
    """

    __slots__ = ("_nodes", "_times")

    def __init__(self, pairs: Iterable[tuple[int, float]]) -> None:
        """Build from ``(node, time)`` pairs.

        Requests are sorted by ``(time, insertion order)`` — the paper's
        non-decreasing-time canonical indexing — and assigned ids
        ``0..len-1`` in that order.
        """
        pairs = list(pairs)
        self._set_columns([v for v, _ in pairs], [t for _, t in pairs])

    @classmethod
    def from_columns(cls, nodes: Sequence[int], times: Sequence[float]) -> "RequestSchedule":
        """Build from parallel node/time columns (lists or numpy arrays)."""
        self = cls.__new__(cls)
        self._set_columns(nodes, times)
        return self

    def _set_columns(self, nodes: Sequence[int], times: Sequence[float]) -> None:
        """Check both columns and store them in canonical order.

        A node must be integral (``1.7`` or ``"3"`` is refused, not cast) and
        a time real, finite and non-negative; both columns are copied into
        plain Python ``int`` / ``float`` lists, so no numpy type reaches a row.
        """
        nodes, times = _column(nodes), _column(times)
        if len(nodes) != len(times):
            raise ScheduleError(
                f"need one time per node, got {len(nodes)} nodes and {len(times)} times"
            )
        if not {*map(type, nodes)} <= {int}:
            nodes = [_node(v, i) for i, v in enumerate(nodes)]
        if not {*map(type, times)} <= {float}:
            times = [_time(t, i) for i, t in enumerate(times)]
        # A NaN or an infinity makes the sum NaN or infinite; only then (or
        # for a negative minimum) look for the first offender.
        if times and not (0.0 <= min(times) and sum(times) < math.inf):
            for i, t in enumerate(times):
                if not 0.0 <= t < math.inf:
                    raise ScheduleError(
                        f"request time must be finite and >= 0, got {t} for pair {i}"
                    )
        # A stable sort on time alone is the (time, insertion order) sort;
        # times already in order, as most generators draw them, skip it.
        if times != sorted(times):
            order = sorted(range(len(times)), key=times.__getitem__)
            nodes = [nodes[i] for i in order]
            times = [times[i] for i in order]
        self._nodes: list[int] = nodes
        self._times: list[float] = times

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Request]:
        return map(Request, self._nodes, self._times, range(len(self._nodes)))

    def __getitem__(self, rid):
        """Sequence indexing: negative positions and slices as for a tuple."""
        if isinstance(rid, slice):
            return tuple(self)[rid]
        return self.by_rid(range(len(self._nodes))[rid])

    def by_rid(self, rid: int) -> Request:
        """Request with the given canonical id."""
        if not 0 <= rid < len(self._nodes):
            raise ScheduleError(f"no request with rid {rid}")
        return Request(self._nodes[rid], self._times[rid], rid)

    @property
    def nodes(self) -> list[int]:
        """Issuing node per request, in canonical order (do not mutate)."""
        return self._nodes

    @property
    def times(self) -> list[float]:
        """Issue time per request, in canonical order (do not mutate)."""
        return self._times

    def max_time(self) -> float:
        """Largest issue time ``t_|R|`` (0 for an empty schedule)."""
        return self._times[-1] if self._times else 0.0

    def validate_nodes(self, num_nodes: int) -> None:
        """Raise :class:`ScheduleError` if any request names a bad node."""
        nodes = self._nodes
        if nodes and not (0 <= min(nodes) and max(nodes) < num_nodes):
            rid = next(i for i, v in enumerate(nodes) if not 0 <= v < num_nodes)
            raise ScheduleError(f"request {rid} at node {nodes[rid]} outside [0, {num_nodes})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RequestSchedule(len={len(self)}, span=[0, {self.max_time()}])"


def _column(values: Sequence) -> list:
    """A private list copy of a column: ``tolist()`` turns a numpy array's
    elements into Python scalars in one call."""
    return values.tolist() if hasattr(values, "tolist") else list(values)


def _node(value, pair: int) -> int:
    if isinstance(value, Integral) or (isinstance(value, Real) and float(value).is_integer()):
        return int(value)
    raise ScheduleError(f"request node must be an integer, got {value!r} for pair {pair}")


def _time(value, pair: int) -> float:
    if not isinstance(value, Real):
        raise ScheduleError(f"request time must be a real number, got {value!r} for pair {pair}")
    try:
        return float(value)
    except OverflowError:  # an int past the float range: infinitely late
        return math.inf
