"""Tests for the period schedule and client pool manager."""

import math

import pytest

from repro.errors import WorkloadError
from repro.sim.engine import Simulator
from repro.workloads.schedule import (
    ClientPoolManager,
    PeriodSchedule,
    constant_schedule,
    paper_schedule,
)


class FakeClient:
    """Minimal stand-in implementing the activate/deactivate protocol."""

    def __init__(self, class_name, client_id):
        self.class_name = class_name
        self.client_id = client_id
        self.active = False
        self.activations = 0

    def activate(self):
        if not self.active:
            self.activations += 1
        self.active = True

    def deactivate(self):
        self.active = False


class TestPeriodSchedule:
    def test_period_lookup(self):
        schedule = PeriodSchedule(10.0, {"a": [1, 2, 3]})
        assert schedule.period_at(0.0) == 0
        assert schedule.period_at(9.999) == 0
        assert schedule.period_at(10.0) == 1
        assert schedule.period_at(25.0) == 2
        assert schedule.period_at(1e6) == 2  # clamped

    def test_count_at(self):
        schedule = PeriodSchedule(10.0, {"a": [1, 2, 3]})
        assert schedule.count_at("a", 5.0) == 1
        assert schedule.count_at("a", 15.0) == 2

    def test_exact_boundaries_belong_to_the_starting_period(self):
        """Regression: t == k * period_seconds maps to period k, never k-1."""
        schedule = PeriodSchedule(10.0, {"a": [1, 2, 3, 4]})
        for k in range(4):
            assert schedule.period_at(k * 10.0) == k

    def test_boundaries_survive_non_binary_period_lengths(self):
        """Regression: boundary lookups when period_seconds has no exact
        float representation, so t / period_seconds can land a hair below
        (or above) the integer boundary."""
        for period_seconds in (0.1, 1.0 / 3.0, 0.7, 8.0 / 3.0, 119.99):
            schedule = PeriodSchedule(period_seconds, {"a": list(range(50))})
            for k in range(50):
                t = k * period_seconds
                assert schedule.period_at(t) == k, (period_seconds, k)
                # A hair into the period still maps to k.
                assert schedule.period_at(t + period_seconds * 1e-9) == k

    @pytest.mark.parametrize("period_seconds", [0.0, -1.0, math.nan, math.inf])
    def test_period_length_must_be_positive_and_finite(self, period_seconds):
        with pytest.raises(WorkloadError, match="positive and finite"):
            PeriodSchedule(period_seconds, {"a": [1, 2, 3]})

    def test_horizon_clamps_to_last_period(self):
        schedule = PeriodSchedule(10.0, {"a": [1, 2, 3]})
        assert schedule.period_at(schedule.horizon) == 2
        assert schedule.count_at("a", schedule.horizon + 5.0) == 3

    def test_within_horizon_guard(self):
        schedule = PeriodSchedule(10.0, {"a": [1, 2, 3]})
        assert schedule.within_horizon(0.0)
        assert schedule.within_horizon(29.999)
        assert not schedule.within_horizon(30.0)  # horizon is exclusive
        assert not schedule.within_horizon(31.0)
        assert not schedule.within_horizon(-0.001)

    def test_horizon_and_peak(self):
        schedule = PeriodSchedule(10.0, {"a": [1, 5, 3]})
        assert schedule.horizon == 30.0
        assert schedule.peak_count("a") == 5

    def test_scaled_preserves_shape(self):
        schedule = PeriodSchedule(10.0, {"a": [1, 2]})
        scaled = schedule.scaled(100.0)
        assert scaled.counts == schedule.counts
        assert scaled.horizon == 200.0

    def test_validation(self):
        with pytest.raises(WorkloadError):
            PeriodSchedule(0.0, {"a": [1]})
        with pytest.raises(WorkloadError):
            PeriodSchedule(1.0, {})
        with pytest.raises(WorkloadError):
            PeriodSchedule(1.0, {"a": [1, 2], "b": [1]})
        with pytest.raises(WorkloadError):
            PeriodSchedule(1.0, {"a": [-1]})
        with pytest.raises(WorkloadError):
            PeriodSchedule(1.0, {"a": [1]}).period_at(-1.0)


class TestPaperSchedule:
    def test_eighteen_periods_three_classes(self):
        schedule = paper_schedule()
        assert schedule.num_periods == 18
        assert set(schedule.counts) == {"class1", "class2", "class3"}

    def test_oltp_low_medium_high_cycle(self):
        """Highs at 3,6,...,18; lows at 1,4,...,16 (Section 4.3)."""
        counts = paper_schedule().counts["class3"]
        for period in (3, 6, 9, 12, 15, 18):
            assert counts[period - 1] == 25
        for period in (1, 4, 7, 10, 13, 16):
            assert counts[period - 1] == 15
        for period in (2, 5, 8, 11, 14, 17):
            assert counts[period - 1] == 20

    def test_olap_counts_within_2_to_6(self):
        schedule = paper_schedule()
        for name in ("class1", "class2"):
            assert all(2 <= c <= 6 for c in schedule.counts[name])

    def test_period_18_is_heaviest(self):
        """Two Class 1 + six Class 2 + twenty-five Class 3 clients."""
        schedule = paper_schedule()
        assert schedule.counts["class1"][17] == 2
        assert schedule.counts["class2"][17] == 6
        assert schedule.counts["class3"][17] == 25
        totals = [
            schedule.counts["class1"][i]
            + schedule.counts["class2"][i]
            + schedule.counts["class3"][i]
            for i in range(18)
        ]
        assert totals[17] == max(totals)

    def test_period_17_pairs_medium_oltp_with_high_olap(self):
        schedule = paper_schedule()
        assert schedule.counts["class3"][16] == 20
        olap_totals = [
            schedule.counts["class1"][i] + schedule.counts["class2"][i]
            for i in range(18)
        ]
        assert olap_totals[16] == max(olap_totals)


class TestClientPoolManager:
    def _manager(self, counts):
        sim = Simulator()
        schedule = PeriodSchedule(10.0, counts)
        manager = ClientPoolManager(sim, schedule, FakeClient)
        return sim, manager

    def test_initial_period_activates_clients(self):
        sim, manager = self._manager({"a": [3, 1]})
        manager.start()
        sim.run_until(0.0)
        assert manager.active_count("a") == 3

    def test_shrinking_deactivates_extras(self):
        sim, manager = self._manager({"a": [3, 1]})
        manager.start()
        sim.run_until(10.0)
        assert manager.active_count("a") == 1
        assert len(manager.pool("a")) == 3  # clients kept, just idle

    def test_growing_reuses_then_creates(self):
        sim, manager = self._manager({"a": [2, 4]})
        manager.start()
        sim.run_until(0.0)
        first_pool = manager.pool("a")
        sim.run_until(10.0)
        assert manager.active_count("a") == 4
        # The original clients were reused (same objects, stable ids).
        assert manager.pool("a")[:2] == first_pool

    def test_client_ids_stable_and_unique(self):
        sim, manager = self._manager({"a": [2, 3]})
        manager.start()
        sim.run_until(10.0)
        ids = [c.client_id for c in manager.pool("a")]
        assert ids == ["a-c0", "a-c1", "a-c2"]

    def test_double_start_rejected(self):
        sim, manager = self._manager({"a": [1]})
        manager.start()
        with pytest.raises(WorkloadError):
            manager.start()

    def test_zero_count_middle_period_idles_then_reuses_clients(self):
        """Regression: a 0-client middle period deactivates every client;
        the next period reactivates the *same* objects (stable ids, no
        churn), not replacements."""
        sim, manager = self._manager({"a": [2, 0, 2]})
        manager.start()
        sim.run_until(0.0)
        first_pool = manager.pool("a")
        assert manager.active_count("a") == 2

        sim.run_until(10.0)
        assert manager.active_count("a") == 0
        assert len(manager.pool("a")) == 2  # kept, just idle

        sim.run_until(20.0)
        assert manager.active_count("a") == 2
        assert manager.pool("a") == first_pool
        assert [c.client_id for c in manager.pool("a")] == ["a-c0", "a-c1"]
        # Each client was activated exactly twice (once per active period).
        assert [c.activations for c in manager.pool("a")] == [2, 2]

    def test_constant_schedule_helper(self):
        schedule = constant_schedule(5.0, 4, {"x": 7})
        assert schedule.num_periods == 4
        assert all(c == 7 for c in schedule.counts["x"])


def test_period_span_is_exactly_what_period_at_maps_to_the_period():
    # Also at period lengths that are no binary fraction, on and beside
    # every boundary, and past the horizon (clamped to the last period).
    for seconds in (10.0, 0.1, 1.0 / 3.0, 7.3, 120.0):
        schedule = PeriodSchedule(seconds, {"a": [1] * 7})
        spans = [schedule.period_span(period) for period in range(7)]
        assert spans[0][0] == 0.0 and spans[-1][1] == math.inf
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        times = [0.0, schedule.horizon * 3]
        for k in range(1, 9):
            edge = k * seconds
            times += [edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf), edge - seconds / 3]
        for time in times:
            inside = [p for p, (start, end) in enumerate(spans) if start <= time < end]
            assert inside == [schedule.period_at(time)], (seconds, time)
