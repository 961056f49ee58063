"""Tests for the discrete-event simulator kernel."""

import pytest

from repro.errors import SimulationError


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0
    assert sim.pending_events == 0
    assert sim.fired_events == 0


def test_schedule_and_run_single_event(sim):
    fired = []
    sim.schedule(5.0, lambda: fired.append(sim.now))
    sim.run_until(10.0)
    assert fired == [5.0]
    assert sim.now == 10.0


def test_events_fire_in_time_order(sim):
    order = []
    sim.schedule(3.0, lambda: order.append("c"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(2.0, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fire_in_scheduling_order(sim):
    order = []
    for tag in ("first", "second", "third"):
        sim.schedule(1.0, lambda t=tag: order.append(t))
    sim.run()
    assert order == ["first", "second", "third"]


def test_priority_breaks_simultaneous_ties(sim):
    order = []
    sim.schedule(1.0, lambda: order.append("normal"), priority=0)
    sim.schedule(1.0, lambda: order.append("early"), priority=-1)
    sim.run()
    assert order == ["early", "normal"]


def test_zero_delay_event_fires_after_current_instant_work(sim):
    order = []

    def outer():
        order.append("outer")
        sim.schedule(0.0, lambda: order.append("inner"))

    sim.schedule(1.0, outer)
    sim.run()
    assert order == ["outer", "inner"]
    assert sim.now == 1.0


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_nan_delay_rejected(sim):
    # A NaN key never compares below anything, so run() would stop at it
    # and every later event would be lost.
    fired = []
    for delay in (1.0, 2.0, 3.0):
        sim.schedule(delay, lambda: fired.append(sim.now))
    with pytest.raises(SimulationError, match="NaN"):
        sim.schedule(float("nan"), lambda: fired.append("nan"))
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_schedule_at_nan_rejected(sim):
    with pytest.raises(SimulationError, match="NaN"):
        sim.schedule_at(float("nan"), lambda: None)
    assert sim.pending_events == 0


def test_schedule_at_in_the_past_rejected(sim):
    sim.schedule(2.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_run_until_stops_at_horizon_and_clock_lands_on_it(sim):
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(5.0, lambda: fired.append(5))
    sim.run_until(3.0)
    assert fired == [1]
    assert sim.now == 3.0
    sim.run_until(6.0)
    assert fired == [1, 5]


def test_run_until_executes_events_exactly_at_horizon(sim):
    fired = []
    sim.schedule(3.0, lambda: fired.append(3))
    sim.run_until(3.0)
    assert fired == [3]


def test_run_until_in_the_past_rejected(sim):
    sim.run_until(5.0)
    with pytest.raises(SimulationError):
        sim.run_until(4.0)


def test_cancel_prevents_firing(sim):
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append(1))
    assert handle.active
    assert handle.cancel()
    assert not handle.active
    sim.run()
    assert fired == []


def test_cancel_twice_returns_false(sim):
    handle = sim.schedule(1.0, lambda: None)
    assert handle.cancel()
    assert not handle.cancel()


def test_cancel_after_firing_is_noop(sim):
    handle = sim.schedule(1.0, lambda: None)
    sim.run()
    assert not handle.cancel()


def test_events_scheduled_from_callbacks(sim):
    times = []

    def chain(depth):
        times.append(sim.now)
        if depth > 0:
            sim.schedule(1.0, lambda: chain(depth - 1))

    sim.schedule(1.0, lambda: chain(3))
    sim.run()
    assert times == [1.0, 2.0, 3.0, 4.0]


def test_run_max_events(sim):
    for _ in range(10):
        sim.schedule(1.0, lambda: None)
    fired = sim.run(max_events=4)
    assert fired == 4
    assert sim.fired_events == 4


def test_reentrant_run_rejected(sim):
    errors = []

    def inner():
        try:
            sim.run_until(10.0)
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, inner)
    sim.run_until(5.0)
    assert len(errors) == 1


def test_fired_event_count(sim):
    for delay in (1.0, 2.0, 3.0):
        sim.schedule(delay, lambda: None)
    sim.run()
    assert sim.fired_events == 3


def test_run_until_rejects_nan(sim):
    # NaN compares false both ways: it used to slip past the "in the past"
    # check, leave the clock where it was, and with a periodic timer pending
    # never return.
    with pytest.raises(SimulationError, match="run_until"):
        sim.run_until(float("nan"))
    assert sim.now == 0.0
