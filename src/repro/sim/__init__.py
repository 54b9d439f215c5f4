"""Discrete-event simulation kernel.

The kernel substitutes for the paper's IBM SP2 testbed: all protocol code
runs as atomic callbacks over a deterministic virtual clock.  See
``DESIGN.md`` §2 for the substitution argument.
"""

from repro.sim.events import Event, EventQueue, PRIORITY_DEFAULT, PRIORITY_LATE
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry, spawn_rng

__all__ = [
    "Event",
    "EventQueue",
    "PRIORITY_DEFAULT",
    "PRIORITY_LATE",
    "Simulator",
    "RngRegistry",
    "spawn_rng",
]
