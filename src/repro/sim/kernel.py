"""The discrete-event simulation kernel.

:class:`Simulator` owns the virtual clock and the event heap.  All protocol
code in this library is written as plain callbacks against this kernel; a
callback runs atomically (no other event interleaves with it), which models
the paper's atomic initiation / path-reversal steps directly.

Typical use::

    sim = Simulator()
    sim.call_at(3.0, handler, arg1, arg2)
    sim.call_in(1.5, other_handler)
    sim.run()                # drain all events
    print(sim.now)           # time of the last fired event

The kernel is single-threaded and deterministic.  The heap holds
``(time, seq, fn, args)`` tuples and ``seq`` is the scheduling index, so the
firing order is total: two events scheduled for the same time fire in the
order they were scheduled, on every run, on every platform — the same
``(time, seq)`` key the fast loops of :mod:`repro.core.fast_arrow` order
their heap by.  The paper's model (Section 3.1) allows *arbitrary*
processing order for simultaneously arriving messages; that freedom is
explored by ``tie_break`` in :mod:`repro.analysis.nearest_neighbor`
(Lemma 3.8), never by the kernel — each run stays reproducible.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.errors import SimulationError

__all__ = ["Simulator"]


class Simulator:
    """Single-threaded deterministic discrete-event simulator.

    ``now`` is the current simulation time: the time of the event being
    processed, or of the last one fired.  It is a plain slot, read on
    every message, that only :meth:`run` writes.
    """

    __slots__ = ("_heap", "_seq", "now", "_running", "_fired", "_max_events")

    def __init__(self, max_events: int | None = None) -> None:
        """Create a simulator.

        Parameters
        ----------
        max_events:
            Optional safety valve: :meth:`run` raises
            :class:`SimulationError` instead of firing one more event.
            Useful for catching accidental livelock in protocol code under
            test.
        """
        self._heap: list[tuple[float, int, Callable[..., Any], tuple]] = []
        self._seq = 0
        self.now = 0.0
        self._running = False
        self._fired = 0
        self._max_events = max_events

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``.

        Scheduling into the past raises :class:`SimulationError`; scheduling
        exactly at :attr:`now` is allowed and the event fires after every
        event already scheduled for the current instant, preserving
        causality within a time step.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} (now is t={self.now})"
            )
        if time != time:  # NaN guard
            raise SimulationError("event time is NaN")
        heapq.heappush(self._heap, (time, self._seq, fn, args))
        self._seq += 1

    def call_in(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` after a non-negative relative ``delay``."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self.now + delay
        if time != time:  # NaN guard
            raise SimulationError("event time is NaN")
        heapq.heappush(self._heap, (time, self._seq, fn, args))
        self._seq += 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self) -> float:
        """Run until the heap drains; returns the final simulation time."""
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        fired = self._fired
        limit = float("inf") if self._max_events is None else self._max_events
        try:
            while heap:
                self.now, _, fn, args = pop(heap)
                fired += 1
                # Tested before the event fires, as the fast loops do, so
                # one limit raises the same error on every engine.
                if fired > limit:
                    raise SimulationError(
                        f"exceeded max_events={self._max_events}; "
                        "possible livelock in protocol code"
                    )
                fn(*args)
        finally:
            self._fired = fired
            self._running = False
        return self.now
