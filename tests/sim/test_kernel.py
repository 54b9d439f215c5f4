"""Unit tests for the simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.core.message import Simulator


def test_public_surface():
    public = [name for name in vars(Simulator) if not name.startswith("_")]
    assert sorted(public) == ["call_at", "call_in", "now", "run"]


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_run_advances_clock_to_last_event():
    sim = Simulator()
    sim.call_at(7.5, lambda: None)
    assert sim.run() == 7.5
    assert sim.now == 7.5


def test_call_in_is_relative():
    sim = Simulator()
    seen = []
    def later():
        seen.append(sim.now)
        if len(seen) < 3:
            sim.call_in(2.0, later)
    sim.call_in(1.0, later)
    sim.run()
    assert seen == [1.0, 3.0, 5.0]


def test_scheduling_in_past_raises():
    sim = Simulator()
    sim.call_at(5.0, lambda: sim.call_at(1.0, lambda: None))
    with pytest.raises(
        SimulationError, match=r"cannot schedule event at t=1\.0 \(now is t=5\.0\)"
    ):
        sim.run()


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError, match="negative delay -1.0"):
        sim.call_in(-1.0, lambda: None)


def test_nan_time_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError, match="event time is NaN"):
        sim.call_at(float("nan"), lambda: None)
    with pytest.raises(SimulationError, match="event time is NaN"):
        sim.call_in(float("nan"), lambda: None)
    assert sim.run() == 0.0  # nothing was scheduled


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.call_at(3.0, fired.append, "c")
    sim.call_at(1.0, fired.append, "a")
    sim.call_at(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_same_time_fires_in_scheduling_order():
    sim = Simulator()
    order = []
    for i in range(10):
        sim.call_at(5.0, order.append, i)
    sim.run()
    assert order == list(range(10))


def test_reentrant_run_raises():
    sim = Simulator()
    sim.call_at(1.0, sim.run)
    with pytest.raises(SimulationError, match="already running"):
        sim.run()


def test_max_events_guard_detects_livelock():
    sim = Simulator(max_events=100)
    fired = []
    def spin():
        fired.append(sim.now)
        sim.call_in(0.0, spin)
    sim.call_at(0.0, spin)
    with pytest.raises(
        SimulationError,
        match="exceeded max_events=100; possible livelock in protocol code",
    ):
        sim.run()
    assert len(fired) == 100  # the guard trips before the event that would exceed it


def test_handler_exceptions_propagate():
    sim = Simulator()
    def boom():
        raise ValueError("boom")
    sim.call_at(1.0, boom)
    with pytest.raises(ValueError):
        sim.run()
    # The simulator is usable again after the failure.
    sim.call_at(2.0, lambda: None)
    sim.run()


def test_zero_delay_event_runs_at_same_instant_after_current():
    sim = Simulator()
    seq = []
    def first():
        seq.append(("first", sim.now))
        sim.call_in(0.0, second)
    def second():
        seq.append(("second", sim.now))
    sim.call_at(2.0, first)
    sim.run()
    assert seq == [("first", 2.0), ("second", 2.0)]


@pytest.mark.parametrize("k", [0, 1, 5])
def test_max_events_exact_threshold(k):
    sim = Simulator(max_events=k)
    for i in range(k):
        sim.call_at(float(i), lambda: None)
    sim.run()
    assert sim._fired == k  # k events under max_events=k run

    sim = Simulator(max_events=k)
    fired = []
    for i in range(k + 1):
        sim.call_at(float(i), fired.append, i)
    with pytest.raises(SimulationError, match=f"^exceeded max_events={k}; "):
        sim.run()
    assert fired == list(range(k))  # ... and the (k + 1)-th raises unfired


def test_fired_count_spans_runs_and_failed_handlers():
    sim = Simulator(max_events=3)
    sim.call_at(1.0, lambda: None)
    sim.call_at(2.0, lambda: None)
    sim.run()
    assert sim._fired == 2

    def boom():
        raise ValueError("boom")

    sim.call_at(3.0, boom)
    with pytest.raises(ValueError, match="boom"):
        sim.run()
    assert sim._fired == 3  # the raising handler's event counts
    # The budget belongs to the simulator, not to one run: the fourth
    # event overall exceeds it.
    sim.call_at(4.0, lambda: None)
    with pytest.raises(SimulationError, match="exceeded max_events=3"):
        sim.run()
    assert sim._fired == 4


def test_call_in_zero_and_call_at_now_fire_in_scheduling_order():
    sim = Simulator()
    order = []

    def start():
        sim.call_at(sim.now, order.append, "at-1")
        sim.call_in(0.0, order.append, "in-1")
        sim.call_at(sim.now, order.append, "at-2")
        sim.call_in(0.0, order.append, "in-2")

    sim.call_in(0.0, order.append, "first")
    sim.call_at(0.0, order.append, "second")
    sim.call_at(2.0, start)
    sim.call_at(2.0, order.append, "queued-before-start-ran")
    sim.run()
    assert order == [
        "first",
        "second",
        "queued-before-start-ran",
        "at-1",
        "in-1",
        "at-2",
        "in-2",
    ]
