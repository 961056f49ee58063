"""Tests for the QueryTracer: hand-driven lifecycles and full runs."""

from types import SimpleNamespace

import pytest

from repro.errors import SimulationError
from repro.obs.tracer import QueryTracer


class FakeSim:
    def __init__(self):
        self.now = 0.0


class FakePatroller:
    """Duck-typed patroller: one listener per lifecycle event."""

    def __init__(self, intercepted=("class1", "class2")):
        self._intercepted = set(intercepted)
        self._listeners = {}

    def subscribe(self, event, listener):
        self._listeners[event] = listener

    def emit(self, event, query):
        self._listeners[event](query)

    def intercepts(self, class_name):
        return class_name in self._intercepted


def query(qid=1, class_name="class1"):
    return SimpleNamespace(
        query_id=qid,
        class_name=class_name,
        template="t1",
        kind="olap",
        estimated_cost=500.0,
    )


@pytest.fixture
def rig():
    sim = FakeSim()
    patroller = FakePatroller()
    tracer = QueryTracer(clock=sim, patroller=patroller)
    return sim, patroller, tracer


class TestHandDrivenLifecycle:
    def test_full_lifecycle_produces_three_spans(self, rig):
        sim, patroller, tracer = rig
        q = query()
        sim.now = 1.0
        patroller.emit("submitted", q)
        sim.now = 1.5
        patroller.emit("intercepted", q)
        sim.now = 4.0
        patroller.emit("released", q)
        sim.now = 9.0
        patroller.emit("completed", q)

        assert tracer.balanced
        assert tracer.validate() == []
        spans = tracer.spans_for(1)
        assert [s.phase for s in spans] == ["intercept", "queue_wait", "execute"]
        assert [s.duration for s in spans] == pytest.approx([0.5, 2.5, 5.0])
        assert all(s.class_name == "class1" for s in spans)
        assert all(s.estimated_cost == 500.0 for s in spans)

    def test_cancel_closes_open_span_and_marks_terminal(self, rig):
        sim, patroller, tracer = rig
        q = query()
        patroller.emit("submitted", q)
        sim.now = 0.5
        patroller.emit("intercepted", q)
        sim.now = 3.0
        patroller.emit("cancelled", q)

        assert tracer.balanced
        assert tracer.validate() == []
        spans = tracer.spans_for(1)
        assert [s.phase for s in spans] == ["intercept", "queue_wait", "cancelled"]
        terminal = spans[-1]
        assert terminal.begin == terminal.end == 3.0
        assert spans[1].end == 3.0  # queue_wait cut at cancellation

    def test_reject_marks_terminal(self, rig):
        sim, patroller, tracer = rig
        q = query()
        patroller.emit("submitted", q)
        sim.now = 0.25
        patroller.emit("rejected", q)
        assert [s.phase for s in tracer.spans_for(1)] == ["intercept", "rejected"]
        assert tracer.balanced

    def test_bypassed_class_produces_no_spans(self, rig):
        sim, patroller, tracer = rig
        q = query(qid=2, class_name="class3")
        patroller.emit("submitted", q)
        patroller.emit("completed", q)
        assert tracer.spans == []
        assert tracer.opened == 0
        assert tracer.balanced

    def test_untracked_events_are_ignored(self, rig):
        sim, patroller, tracer = rig
        # Events for a query the tracer never opened must not open
        # mid-lifecycle spans or crash.
        q = query(qid=9)
        patroller.emit("intercepted", q)
        patroller.emit("released", q)
        patroller.emit("cancelled", q)
        patroller.emit("completed", q)
        assert tracer.spans == []
        assert tracer.balanced

    def test_finalize_truncates_open_spans(self, rig):
        sim, patroller, tracer = rig
        q = query()
        patroller.emit("submitted", q)
        sim.now = 1.0
        patroller.emit("intercepted", q)

        assert not tracer.balanced
        assert tracer.open_count == 1
        with pytest.raises(SimulationError):
            tracer.assert_balanced()

        tracer.finalize(now=20.0)
        assert tracer.balanced
        tracer.assert_balanced()
        last = tracer.spans_for(1)[-1]
        assert last.phase == "queue_wait"
        assert last.truncated
        assert last.end == 20.0
        # Idempotent.
        tracer.finalize(now=30.0)
        assert tracer.closed == tracer.opened

    def test_finalize_never_closes_before_begin(self, rig):
        sim, patroller, tracer = rig
        q = query()
        sim.now = 10.0
        patroller.emit("submitted", q)
        tracer.finalize(now=5.0)  # earlier than the span's begin
        span = tracer.spans_for(1)[0]
        assert span.end == span.begin == 10.0
        assert tracer.validate() == []

    def test_counts_track_opened_and_closed(self, rig):
        sim, patroller, tracer = rig
        q = query()
        patroller.emit("submitted", q)
        sim.now = 1.0
        patroller.emit("intercepted", q)
        assert tracer.opened == 2
        assert tracer.closed == 1
        assert tracer.open_count == 1


class TestTracedExperiment:
    @pytest.fixture(scope="class")
    def traced_result(self):
        from repro.config import (
            MonitorConfig,
            PlannerConfig,
            WorkloadScaleConfig,
            default_config,
        )
        from repro.experiments.runner import ExperimentSpec, run_spec

        config = default_config(
            scale=WorkloadScaleConfig(period_seconds=20.0, num_periods=2),
            monitor=MonitorConfig(snapshot_interval=5.0, response_time_window=10.0),
            planner=PlannerConfig(control_interval=10.0),
        )
        return run_spec(ExperimentSpec(controller="qs", config=config, tracing=True))

    def test_tracer_rides_in_extras_balanced(self, traced_result):
        tracer = traced_result.extras["tracer"]
        assert tracer.balanced
        assert tracer.spans
        assert tracer.validate() == []

    def test_spans_cover_intercepted_classes_only(self, traced_result):
        tracer = traced_result.extras["tracer"]
        classes = {s.class_name for s in tracer.spans}
        assert classes <= {"class1", "class2"}
        assert "class3" not in classes

    def test_spans_carry_periods_and_costs(self, traced_result):
        tracer = traced_result.extras["tracer"]
        for span in tracer.spans:
            assert span.period is not None
            assert span.estimated_cost > 0.0

    def test_untraced_run_has_no_tracer(self):
        from repro.config import WorkloadScaleConfig, default_config
        from repro.experiments.runner import ExperimentSpec, run_spec

        config = default_config(
            scale=WorkloadScaleConfig(period_seconds=10.0, num_periods=1)
        )
        result = run_spec(ExperimentSpec(controller="none", config=config))
        assert "tracer" not in result.extras
