"""Tests for the workload detector."""

import pytest

from repro.core.detection import (
    EWMA_ALPHA,
    MIN_SHIFT_GAP,
    SHIFT_FACTOR,
    WARMUP_BUCKETS,
    ShiftEvent,
    WorkloadDetector,
)
from repro.core.service_class import paper_classes
from repro.dbms.query import CPU, Query
from repro.errors import ConfigurationError
from repro.sim.engine import Simulator


def make_detector():
    sim = Simulator()
    return sim, WorkloadDetector(sim, paper_classes())


_qid = [9000]


def arrival(class_name="class3", cost=30.0):
    _qid[0] += 1
    return Query(
        query_id=_qid[0],
        class_name=class_name,
        client_id="c",
        template="t",
        kind="oltp",
        phases=((CPU, 0.01),),
        true_cost=cost,
        estimated_cost=cost,
    )


def drive(sim, detector, rates, class_name="class3"):
    """Submit `rates[i]` arrivals during bucket i."""
    detector.start()
    for bucket, count in enumerate(rates):
        start = bucket * 10.0
        for i in range(count):
            at = start + (i + 0.5) * (10.0 / max(count, 1))
            sim.schedule_at(at, lambda c=class_name: detector.observe(arrival(c)))
        sim.run_until((bucket + 1) * 10.0)


def test_characterization_per_bucket():
    sim, detector = make_detector()
    drive(sim, detector, [5])
    assert detector.buckets_seen == 1
    assert detector.baseline_rate("class3") == pytest.approx(0.5)
    assert detector.baseline_rate("class1") == 0.0


def test_baseline_tracks_ewma():
    sim, detector = make_detector()
    drive(sim, detector, [10, 20])
    # baseline = 0.3*2.0 + 0.7*1.0 = 1.3 arrivals/sec
    assert EWMA_ALPHA == 0.3
    assert detector.baseline_rate("class3") == pytest.approx(1.3)


def test_shift_fires_on_rate_jump():
    sim, detector = make_detector()
    events = []
    detector.add_shift_listener(events.append)
    drive(sim, detector, [10, 10, 30])  # 3x jump in bucket 3
    assert len(events) >= 1
    event = events[0]
    assert event.class_name == "class3"
    assert event.factor > SHIFT_FACTOR


def test_shift_fires_on_rate_drop():
    sim, detector = make_detector()
    events = []
    detector.add_shift_listener(events.append)
    drive(sim, detector, [30, 30, 5])
    assert any(e.factor < 1.0 for e in events)


def test_no_shift_on_steady_rate():
    sim, detector = make_detector()
    events = []
    detector.add_shift_listener(events.append)
    drive(sim, detector, [10, 11, 10, 9, 10])
    assert events == []


def test_warmup_suppresses_early_shifts():
    sim, detector = make_detector()
    events = []
    detector.add_shift_listener(events.append)
    assert WARMUP_BUCKETS == 2
    drive(sim, detector, [2, 30])  # a 15x swing inside warmup
    assert events == []


def test_min_shift_gap_rate_limits():
    sim, detector = make_detector()
    events = []
    detector.add_shift_listener(events.append)
    # The jump at t=30 fires; the drop at t=40 is a shift too, but only
    # 10 s after the last one.
    assert MIN_SHIFT_GAP == 20.0
    drive(sim, detector, [10, 10, 40, 5])
    assert [e.time for e in events] == [30.0]


def test_unmanaged_class_ignored():
    sim, detector = make_detector()
    detector.observe(arrival(class_name="ghost"))
    detector.start()
    sim.run_until(10.0)
    assert detector.baseline_rate("class3") == 0.0
    assert detector.baseline_rate("ghost") is None


def test_double_start_rejected():
    sim, detector = make_detector()
    detector.start()
    with pytest.raises(ConfigurationError):
        detector.start()


def test_shift_event_factor_guards_zero_baseline():
    up = ShiftEvent("c", 0.0, baseline_rate=0.0, observed_rate=5.0)
    assert up.factor == float("inf")
    flat = ShiftEvent("c", 0.0, baseline_rate=0.0, observed_rate=0.0)
    assert flat.factor == 1.0
