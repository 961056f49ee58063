"""Tests for event records (their own cancellation handles) and timers."""

import pytest

from repro.errors import SimulationError
from repro.runtime import TimerHandle
from repro.sim.engine import Simulator
from repro.sim.events import Event


def make_event(time=1.0, priority=0, seq=0, label=""):
    return Event(time, priority, seq, lambda: None, label)


def test_handle_exposes_metadata():
    # An event is the handle `schedule` returns.
    handle = make_event(time=3.5, label="tick")
    assert isinstance(handle, TimerHandle)
    assert handle.time == 3.5
    assert handle.label == "tick"
    assert handle.active


def test_handle_cancel_semantics():
    handle = make_event()
    assert handle.cancel() is True
    assert handle.active is False
    assert handle.cancel() is False


# ----------------------------------------------------------------------
# Re-armable timers
# ----------------------------------------------------------------------
def test_timer_fires_once_per_arming_and_counts_as_an_event():
    sim = Simulator()
    fired = []
    timer = sim.timer(lambda: fired.append(sim.now), "t")
    assert not timer.active and sim.pending_events == 0
    timer.arm(2.0)
    assert timer.active and sim.pending_events == 1
    sim.schedule(5.0, lambda: None)
    assert sim.pending_events == 2
    sim.run()
    assert fired == [2.0]
    assert not timer.active
    assert sim.fired_events == 2 and sim.pending_events == 0


def test_rearming_moves_the_single_deadline():
    sim = Simulator()
    fired = []
    timer = sim.timer(lambda: fired.append(sim.now))
    timer.arm(5.0)
    timer.arm(1.0)
    timer.arm(3.0)
    assert sim.pending_events == 1
    sim.run()
    assert fired == [3.0] and sim.fired_events == 1


def test_timer_cancel_semantics():
    sim = Simulator()
    fired = []
    timer = sim.timer(lambda: fired.append(sim.now))
    assert timer.cancel() is False
    timer.arm(1.0)
    assert timer.cancel() is True
    assert timer.cancel() is False
    assert sim.pending_events == 0
    sim.run()
    assert fired == []
    timer.arm(1.0)
    sim.run()
    assert fired == [1.0]
    assert timer.cancel() is False  # already fired


def test_negative_arm_delay_raises_like_schedule():
    sim = Simulator()
    with pytest.raises(SimulationError, match="negative delay"):
        sim.timer(lambda: None, "t").arm(-0.1)


def test_nan_arm_delay_raises():
    sim = Simulator()
    timer = sim.timer(lambda: None, "t")
    with pytest.raises(SimulationError, match="NaN"):
        timer.arm(float("nan"))
    assert not timer.active


def test_arming_takes_the_sequence_number_schedule_would_have():
    # Same instant, same priority: timer and events interleave in the order
    # they were armed / scheduled, and priorities still sort first.
    sim = Simulator()
    order = []
    timer = sim.timer(lambda: order.append("timer"))
    sim.schedule(1.0, lambda: order.append("before"))
    timer.arm(1.0)
    sim.schedule(1.0, lambda: order.append("after"))
    sim.schedule(1.0, lambda: order.append("late"), priority=1)
    sim.schedule(1.0, lambda: order.append("early"), priority=-1)
    sim.run()
    assert order == ["early", "before", "timer", "after", "late"]


def test_rearming_gives_up_the_old_place_among_simultaneous_events():
    sim = Simulator()
    order = []
    timer = sim.timer(lambda: order.append("timer"))
    timer.arm(1.0)
    sim.schedule(1.0, lambda: order.append("event"))
    timer.arm(1.0)  # what cancel() + schedule() would do: a new, later seq
    sim.run()
    assert order == ["event", "timer"]


def test_timer_armed_in_a_callback_for_the_current_instant():
    # Fires after events already scheduled for the instant, before ones
    # scheduled later.
    sim = Simulator()
    order = []
    timer = sim.timer(lambda: order.append("timer"))

    def outer():
        order.append("outer")
        timer.arm(0.0)
        sim.schedule(0.0, lambda: order.append("scheduled later"))

    sim.schedule(1.0, outer)
    sim.schedule(1.0, lambda: order.append("already scheduled"))
    sim.run()
    assert order == ["outer", "already scheduled", "timer", "scheduled later"]
    assert sim.now == 1.0


def test_timer_rearmed_from_its_own_callback():
    sim = Simulator()
    fired = []

    def tick():
        fired.append(sim.now)
        if len(fired) < 3:
            timer.arm(1.5)

    timer = sim.timer(tick)
    timer.arm(1.5)
    sim.run()
    assert fired == [1.5, 3.0, 4.5]


def test_step_and_run_drain_armed_timers():
    sim = Simulator()
    fired = []
    first = sim.timer(lambda: fired.append("first"))
    second = sim.timer(lambda: fired.append("second"))
    second.arm(2.0)
    first.arm(1.0)
    assert sim.step() is True and fired == ["first"] and sim.now == 1.0
    assert sim.run() == 1 and fired == ["first", "second"] and sim.now == 2.0
    assert sim.step() is False


def test_run_until_leaves_a_later_timer_armed():
    sim = Simulator()
    fired = []
    timer = sim.timer(lambda: fired.append(sim.now))
    timer.arm(3.0)
    sim.run_until(3.0 - 1e-9)
    assert fired == [] and timer.active and sim.pending_events == 1
    sim.run_until(3.0)  # due exactly at the horizon: fires
    assert fired == [3.0] and not timer.active


def test_cancelled_heap_head_does_not_hide_a_timer():
    sim = Simulator()
    order = []
    sim.schedule(1.0, lambda: order.append("dead")).cancel()
    sim.timer(lambda: order.append("timer")).arm(2.0)
    sim.schedule(3.0, lambda: order.append("event"))
    sim.run()
    assert order == ["timer", "event"]
