"""Tests for the workload detector."""

import pytest

from repro.core.detection import ShiftEvent, WorkloadDetector
from repro.core.service_class import paper_classes
from repro.dbms.query import CPU, Query
from repro.errors import ConfigurationError
from repro.sim.engine import Simulator


def make_detector(sim=None, **kwargs):
    sim = sim or Simulator()
    defaults = dict(bucket_seconds=10.0, ewma_alpha=0.5, shift_factor=1.5,
                    warmup_buckets=1, min_shift_gap=0.0)
    defaults.update(kwargs)
    return sim, WorkloadDetector(sim, paper_classes(), **defaults)


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
    drive(sim, detector, [5, 10])
    class3 = [h for h in detector.history if h.class_name == "class3"]
    assert [h.arrivals for h in class3] == [5, 10]
    assert class3[0].arrival_rate == pytest.approx(0.5)
    assert class3[1].arrival_rate == pytest.approx(1.0)
    assert class3[0].mean_cost == pytest.approx(30.0)


def test_baseline_tracks_ewma():
    sim, detector = make_detector(ewma_alpha=0.5, shift_factor=100.0)
    drive(sim, detector, [10, 20])
    # baseline = 0.5*2.0 + 0.5*1.0 = 1.5 arrivals/sec
    assert detector.baseline_rate("class3") == pytest.approx(1.5)


def test_shift_fires_on_rate_jump():
    sim, detector = make_detector()
    events = []
    detector.add_shift_listener(events.append)
    drive(sim, detector, [10, 10, 30])  # 3x jump in bucket 3
    assert len(events) >= 1
    event = events[0]
    assert event.class_name == "class3"
    assert event.factor > 1.5


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
    sim, detector = make_detector(warmup_buckets=3)
    events = []
    detector.add_shift_listener(events.append)
    drive(sim, detector, [2, 30, 2])  # wild swings inside warmup
    assert events == []


def test_min_shift_gap_rate_limits():
    sim, detector = make_detector(min_shift_gap=100.0)
    events = []
    detector.add_shift_listener(events.append)
    drive(sim, detector, [10, 10, 40, 5, 40, 5])
    assert len(events) == 1


def test_unmanaged_class_ignored():
    sim, detector = make_detector()
    detector.observe(arrival(class_name="ghost"))
    detector.start()
    sim.run_until(10.0)
    assert all(h.arrivals == 0 for h in detector.history)


def test_double_start_rejected():
    sim, detector = make_detector()
    detector.start()
    with pytest.raises(ConfigurationError):
        detector.start()


def test_invalid_parameters():
    sim = Simulator()
    classes = paper_classes()
    with pytest.raises(ConfigurationError):
        WorkloadDetector(sim, classes, bucket_seconds=0.0)
    with pytest.raises(ConfigurationError):
        WorkloadDetector(sim, classes, ewma_alpha=0.0)
    with pytest.raises(ConfigurationError):
        WorkloadDetector(sim, classes, shift_factor=1.0)
    with pytest.raises(ConfigurationError):
        WorkloadDetector(sim, classes, warmup_buckets=0)
    with pytest.raises(ConfigurationError):
        WorkloadDetector(sim, classes, min_shift_gap=-1.0)


def test_shift_event_factor_guards_zero_baseline():
    up = ShiftEvent("c", 0.0, baseline_rate=0.0, observed_rate=5.0)
    assert up.factor == float("inf")
    flat = ShiftEvent("c", 0.0, baseline_rate=0.0, observed_rate=0.0)
    assert flat.factor == 1.0


class TestForecasting:
    def test_flat_rate_forecast(self):
        sim, detector = make_detector(shift_factor=100.0)
        drive(sim, detector, [10, 10, 10])
        forecast = detector.forecast_rate("class3", horizon=20.0)
        assert forecast == pytest.approx(1.0, abs=0.05)

    def test_rising_trend_extrapolated(self):
        sim, detector = make_detector(shift_factor=100.0)
        drive(sim, detector, [10, 20, 30])  # +1/sec per bucket of rate... linear
        forecast = detector.forecast_rate("class3", horizon=10.0)
        # rates were 1.0, 2.0, 3.0 at bucket starts 0,10,20; now=30;
        # trend = +0.1/sec^2 -> at t=40: 1.0 + 0.1*40 = 5.0
        assert forecast == pytest.approx(5.0, abs=0.3)

    def test_falling_trend_floored_at_zero(self):
        sim, detector = make_detector(shift_factor=100.0)
        drive(sim, detector, [30, 15, 2])
        forecast = detector.forecast_rate("class3", horizon=100.0)
        assert forecast == 0.0

    def test_insufficient_history_returns_none(self):
        sim, detector = make_detector()
        drive(sim, detector, [5])
        assert detector.forecast_rate("class3", horizon=10.0) is None

    def test_negative_horizon_rejected(self):
        sim, detector = make_detector()
        drive(sim, detector, [5, 5])
        with pytest.raises(ConfigurationError):
            detector.forecast_rate("class3", horizon=-1.0)
