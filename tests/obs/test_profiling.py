"""Tests for the controller self-profiler (deterministic fake clock)."""

import pytest

from repro.errors import SimulationError
from repro.obs.profiling import IntervalProfiler, summarize_overhead


class FakeClock:
    """A settable wall clock so tests pin exact durations."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def profiler(clock):
    return IntervalProfiler(clock=clock)


class TestIntervalProfiler:
    def test_sections_and_total(self, profiler, clock):
        profiler.begin()
        clock.t = 1.0
        with profiler.section("monitor"):
            clock.t = 1.5
        with profiler.section("solver"):
            clock.t = 4.0
        clock.t = 4.25
        record = profiler.finish()
        assert record == {
            "monitor_s": pytest.approx(0.5),
            "solver_s": pytest.approx(2.5),
            "total_s": pytest.approx(4.25),
        }

    def test_reentered_sections_accumulate(self, profiler, clock):
        profiler.begin()
        with profiler.section("solver"):
            clock.t = 1.0
        with profiler.section("solver"):
            clock.t = 3.0
        record = profiler.finish()
        assert record["solver_s"] == pytest.approx(3.0)

    def test_section_times_even_when_body_raises(self, profiler, clock):
        profiler.begin()
        with pytest.raises(ValueError):
            with profiler.section("solver"):
                clock.t = 2.0
                raise ValueError("solver blew up")
        record = profiler.finish()
        assert record["solver_s"] == pytest.approx(2.0)

    def test_begin_twice_is_an_error(self, profiler):
        profiler.begin()
        with pytest.raises(SimulationError):
            profiler.begin()

    def test_finish_without_begin_is_an_error(self, profiler):
        with pytest.raises(SimulationError):
            profiler.finish()

    def test_section_outside_interval_is_an_error(self, profiler):
        with pytest.raises(SimulationError):
            with profiler.section("solver"):
                pass

    def test_finish_resets_for_next_interval(self, profiler, clock):
        profiler.begin()
        clock.t = 1.0
        with profiler.section("solver"):
            clock.t = 1.5
        first = profiler.finish()
        profiler.begin()
        clock.t = 3.0
        second = profiler.finish()
        assert first == {"solver_s": pytest.approx(0.5), "total_s": pytest.approx(1.5)}
        assert second == {"total_s": pytest.approx(1.5)}  # nothing carried over
        assert second is not first

    def test_finished_intervals_summarise(self, profiler, clock):
        finished = []
        for duration in (1.0, 3.0):
            start = clock.t
            profiler.begin()
            clock.t = start + duration
            finished.append(profiler.finish())
        summary = summarize_overhead(finished)
        assert summary["total_s"]["mean_s"] == pytest.approx(2.0)
        assert summary["total_s"]["max_s"] == pytest.approx(3.0)
        assert summary["total_s"]["count"] == 2

    def test_default_clock_is_wall_time(self):
        profiler = IntervalProfiler()
        profiler.begin()
        with profiler.section("work"):
            sum(range(1000))
        record = profiler.finish()
        assert record["work_s"] >= 0.0
        assert record["total_s"] >= record["work_s"]


class TestSummarizeOverhead:
    def test_mean_max_count(self):
        records = [
            {"solver_s": 1.0, "total_s": 2.0},
            {"solver_s": 3.0, "total_s": 4.0},
        ]
        summary = summarize_overhead(records)
        assert summary["solver_s"] == {
            "mean_s": pytest.approx(2.0),
            "max_s": pytest.approx(3.0),
            "count": 2,
        }

    def test_absent_keys_are_skipped_not_zeroed(self):
        records = [{"solver_s": 4.0}, {"monitor_s": 1.0}]
        summary = summarize_overhead(records)
        assert summary["solver_s"]["count"] == 1
        assert summary["solver_s"]["mean_s"] == pytest.approx(4.0)
        assert summary["monitor_s"]["count"] == 1

    def test_empty_input(self):
        assert summarize_overhead([]) == {}
