"""The protocol event stream: the one way to watch an arrow run.

Every arrow runner takes an optional ``on_event`` *sink*: a callable that
receives **a list of event tuples** — ``on_event(events)`` — in the order
the protocol produced them (the vocabulary is tabulated in
:class:`repro.monitors.ArrowMonitor`, the stream's first consumer).  With a
sink attached, each emission site appends the event's tuple to the run's
chunk list through a bound ``list.append`` — a C call, no Python frame —
and the list is handed to the sink a chunk at a time; without one, a site
costs a single ``is not None`` test and nothing is allocated.

:class:`EventStream` owns the chunk list and the flush.  The fast loop
(:func:`repro.core.fast_arrow._arrow_loop`) flushes
whenever the list has reached :data:`EVENT_CHUNK` at the start of a
transition and once more when the run ends; the message-level harnesses,
the small-instance oracle, flush once at the end.  Either way the last
flush sits in a ``finally``, so a run the engine aborts (``max_events``, a
``ProtocolError``) still shows its sink everything it emitted.

The list is cleared and reused after every flush: **a sink must not keep
it** (copy the tuples out — ``collected.extend`` is a valid sink).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = ["EVENT_CHUNK", "EventSink", "EventStream", "emitting_to"]

#: Events buffered before the fast loop hands them to the sink.  Large
#: enough that the per-chunk call vanishes, small enough that the live
#: buffer (≈100 bytes per event) does not show in a run's peak memory.
EVENT_CHUNK = 4096

#: What ``on_event`` is: called with a list of event tuples it must not retain.
EventSink = Callable[[list[tuple]], None]


class EventStream:
    """One run's chunk list, its bound ``append`` and the flush to the sink."""

    __slots__ = ("sink", "events", "append")

    def __init__(self, sink: EventSink) -> None:
        self.sink = sink
        self.events: list[tuple] = []
        #: The emission sites' ``emit``: ``emit(("init", rid, node, t))``.
        self.append = self.events.append

    def flush(self) -> None:
        """Hand the buffered events to the sink, then empty the list."""
        events = self.events
        if events:
            try:
                self.sink(events)
            finally:
                events.clear()


@contextmanager
def emitting_to(sink: EventSink | None) -> Iterator[Callable[[tuple], None] | None]:
    """The ``emit`` of a run that flushes once, when the block exits.

    ``None`` for no sink, so the emission sites stay a test on ``None``.
    """
    if sink is None:
        yield None
        return
    stream = EventStream(sink)
    try:
        yield stream.append
    finally:
        stream.flush()
