"""Test-side reads of an :class:`~repro.monitors.ArrowMonitor`'s counters."""


def events_seen(monitor) -> int:
    """Events the monitor has consumed, up to and including a violating one."""
    return monitor._events
