"""Tests for the span data model and its aggregation helpers."""

import pytest

from repro.errors import SimulationError
from repro.obs.spans import (
    PHASES,
    TERMINAL_PHASES,
    PhaseStats,
    Span,
    phase_breakdown,
    slowest_spans,
    validate_spans,
)


def span(qid, phase, begin, end=None, class_name="class1", **kwargs):
    built = Span(query_id=qid, class_name=class_name, phase=phase,
                 begin=begin, **kwargs)
    if end is not None:
        built.close(end)
    return built


class TestSpan:
    def test_close_and_duration(self):
        s = span(1, "queue_wait", 2.0, 5.5)
        assert s.closed
        assert s.duration == pytest.approx(3.5)
        assert not s.truncated

    def test_duration_before_close_raises(self):
        s = span(1, "execute", 2.0)
        with pytest.raises(SimulationError):
            _ = s.duration

    def test_double_close_raises(self):
        s = span(1, "execute", 2.0, 3.0)
        with pytest.raises(SimulationError):
            s.close(4.0)

    def test_close_before_begin_raises(self):
        s = span(1, "execute", 2.0)
        with pytest.raises(SimulationError):
            s.close(1.0)

    def test_truncated_close(self):
        s = span(1, "execute", 2.0)
        s.close(2.0, truncated=True)
        assert s.truncated
        assert s.duration == 0.0

    def test_dict_roundtrip(self):
        s = span(7, "intercept", 1.25, 1.5, template="q1", kind="olap",
                 estimated_cost=900.0, period=3)
        rebuilt = Span.from_dict(s.to_dict())
        assert rebuilt == s
        assert s.to_dict()["class"] == "class1"

    def test_dict_roundtrip_open_span(self):
        s = span(7, "intercept", 1.25)
        rebuilt = Span.from_dict(s.to_dict())
        assert rebuilt.end is None
        assert not rebuilt.closed


class TestPhaseStats:
    def test_empty_stats_are_zero(self):
        stats = PhaseStats("class1", "queue_wait")
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.max == 0.0
        assert stats.percentile(95.0) == 0.0

    def test_aggregates(self):
        stats = PhaseStats("class1", "queue_wait")
        for d in (1.0, 2.0, 3.0, 4.0, 10.0):
            stats.add(d)
        assert stats.count == 5
        assert stats.mean == pytest.approx(4.0)
        assert stats.max == 10.0
        assert stats.percentile(0.0) == 1.0
        assert stats.percentile(50.0) == 3.0
        assert stats.percentile(100.0) == 10.0

    def test_percentile_out_of_range(self):
        stats = PhaseStats("class1", "queue_wait")
        stats.add(1.0)
        with pytest.raises(SimulationError):
            stats.percentile(101.0)

    def test_to_dict_shape(self):
        stats = PhaseStats("class1", "execute")
        stats.add(2.0)
        assert stats.to_dict() == {
            "count": 1, "mean": 2.0, "p50": 2.0, "p95": 2.0, "max": 2.0,
        }


class TestPhaseBreakdown:
    def test_groups_by_class_and_phase(self):
        spans = [
            span(1, "queue_wait", 0.0, 4.0, class_name="class1"),
            span(1, "execute", 4.0, 9.0, class_name="class1"),
            span(2, "queue_wait", 1.0, 2.0, class_name="class2"),
        ]
        cells = phase_breakdown(spans)
        assert set(cells) == {"class1", "class2"}
        assert cells["class1"]["queue_wait"].mean == pytest.approx(4.0)
        assert cells["class1"]["execute"].count == 1
        assert cells["class2"]["queue_wait"].max == pytest.approx(1.0)

    def test_skips_terminals_and_open_spans(self):
        spans = [
            span(1, "cancelled", 5.0, 5.0),
            span(2, "execute", 1.0),  # still open
        ]
        assert phase_breakdown(spans) == {}


def test_slowest_spans_orders_by_duration():
    spans = [
        span(1, "queue_wait", 0.0, 1.0),
        span(2, "queue_wait", 0.0, 9.0),
        span(3, "queue_wait", 0.0, 4.0),
        span(4, "execute", 0.0, 99.0),  # wrong phase
        span(5, "queue_wait", 0.0),     # open, excluded
    ]
    slowest = slowest_spans(spans, phase="queue_wait", n=2)
    assert [s.query_id for s in slowest] == [2, 3]


class TestValidateSpans:
    def good(self):
        return [
            span(1, "intercept", 0.0, 0.5),
            span(1, "queue_wait", 0.5, 4.0),
            span(1, "execute", 4.0, 9.0),
        ]

    def test_clean_trace_has_no_problems(self):
        assert validate_spans(self.good()) == []

    def test_unclosed_span_reported(self):
        problems = validate_spans([span(3, "execute", 1.0)])
        assert any("never closed" in p for p in problems)

    def test_unknown_phase_reported(self):
        problems = validate_spans([span(3, "teleport", 1.0, 2.0)])
        assert any("unknown phase" in p for p in problems)

    def test_repeated_phase_reported(self):
        spans = self.good() + [span(1, "execute", 9.0, 10.0)]
        assert any("repeats phase" in p for p in validate_spans(spans))

    def test_out_of_order_phases_reported(self):
        spans = [
            span(1, "execute", 0.0, 1.0),
            span(1, "queue_wait", 2.0, 3.0),
        ]
        assert any("out of order" in p for p in validate_spans(spans))

    def test_overlap_reported(self):
        spans = [
            span(1, "queue_wait", 0.0, 5.0),
            span(1, "execute", 4.0, 9.0),
        ]
        assert any("overlaps" in p for p in validate_spans(spans))

    def test_double_terminal_reported(self):
        spans = [
            span(1, "cancelled", 1.0, 1.0),
            span(1, "cancelled", 2.0, 2.0),
        ]
        assert any("terminal markers" in p for p in validate_spans(spans))

    def test_span_after_terminal_reported(self):
        spans = [
            span(1, "cancelled", 1.0, 1.0),
            span(1, "execute", 2.0, 3.0),
        ]
        assert any("after its terminal" in p for p in validate_spans(spans))


def test_phase_constants():
    assert PHASES == ("intercept", "queue_wait", "execute")
    assert TERMINAL_PHASES == ("cancelled",)
