"""Tests for the Scheduling Planner control loop."""

import pytest

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    default_config,
)
from repro.core.modeling import OLTPResponseTimeModel, PaperAnalyticModel
from repro.core.monitor import Monitor
from repro.core.plan import SchedulingPlan
from repro.core.planner import SchedulingPlanner
from repro.core.service_class import (
    ResponseTimeGoal,
    ServiceClass,
    paper_classes,
)
from repro.core.solver import PerformanceSolver
from repro.core.utility import PiecewiseLinearUtility
from repro.dbms.engine import DatabaseEngine
from repro.errors import SchedulingError
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from tests.conftest import patroller_dispatcher, patroller_with


def make_planner(classes=None):
    sim = Simulator()
    planner_config = PlannerConfig(control_interval=10.0)
    config = default_config(
        planner=planner_config,
        monitor=MonitorConfig(snapshot_interval=2.0),
    )
    engine = DatabaseEngine(sim, config, RandomStreams(13))
    patroller = patroller_with(sim, engine)
    classes = list(classes if classes is not None else paper_classes())
    for c in classes:
        if c.directly_controlled:
            patroller.enable_for_class(c.name)
    plan = SchedulingPlan.even_split([c.name for c in classes], 30_000.0)
    dispatcher = patroller_dispatcher(patroller, classes, plan)
    patroller.set_release_handler(dispatcher.enqueue)
    monitor = Monitor(sim, engine, patroller.tables, classes, config.monitor)
    patroller.subscribe("completed", monitor.on_completed)
    solver = PerformanceSolver(
        utility=PiecewiseLinearUtility(),
        model=PaperAnalyticModel(
            oltp_model=OLTPResponseTimeModel(prior_slope=-4.2e-6)
        ),
        system_cost_limit=30_000.0,
        oltp_target_margin=1.0,  # at goal means no reason to move
    )
    planner = SchedulingPlanner(sim, monitor, dispatcher, solver, classes, planner_config)
    return sim, engine, monitor, dispatcher, planner


def test_start_schedules_recurring_intervals():
    sim, engine, monitor, dispatcher, planner = make_planner()
    planner.start()
    sim.run_until(35.0)
    assert planner.intervals_run == 3
    assert len(planner.history) == 3


def test_double_start_rejected():
    sim, engine, monitor, dispatcher, planner = make_planner()
    planner.start()
    with pytest.raises(SchedulingError):
        planner.start()


def test_run_interval_installs_plan_on_dispatcher():
    sim, engine, monitor, dispatcher, planner = make_planner()
    record = planner.run_interval()
    assert dispatcher.plan is record.plan
    assert record.plan.total_allocated <= 30_000.0 + 1e-6


def test_every_listener_is_handed_the_one_history_record():
    sim, engine, monitor, dispatcher, planner = make_planner()
    first, second = [], []
    planner.add_plan_listener(first.append)
    planner.add_plan_listener(second.append)
    returned = [planner.run_interval(), planner.run_interval(trigger="early")]
    assert len(planner.history) == 2
    for index, record in enumerate(planner.history):
        assert record is returned[index]
        assert record is first[index] and record is second[index]
        assert record.interval_index == index
        assert record.plan.as_dict() == record.solver.allocation
    assert [r.trigger for r in planner.history] == ["scheduled", "early"]


def test_record_is_complete_before_the_first_listener_runs():
    """The dispatcher/solver snapshot and the overhead are taken before any
    listener: a listener sees a finished record with the installed plan."""
    sim, engine, monitor, dispatcher, planner = make_planner()
    seen = []

    def listener(record):
        seen.append(
            (
                dispatcher.plan is record.plan,
                planner.history[-1] is record,
                set(record.dispatcher),
                record.solver.solve_calls,
                sorted(record.overhead),
            )
        )

    planner.add_plan_listener(listener)
    planner.run_interval()
    planner.run_interval()
    names = {c.name for c in planner.classes}
    keys = ["dispatcher_s", "monitor_s", "solver_s", "total_s"]
    assert seen == [(True, True, names, 1, keys), (True, True, names, 2, keys)]


def test_history_keeps_each_intervals_overhead():
    """What ``IntervalProfiler.history`` used to hold lives on the records."""
    from repro.metrics.telemetry import TelemetryStore
    from repro.obs.profiling import IntervalProfiler

    sim, engine, monitor, dispatcher, planner = make_planner()
    ticks = iter(range(1000))
    planner.profiler = IntervalProfiler(clock=lambda: float(next(ticks)))
    planner.run_interval()
    planner.run_interval()
    # begin, three timed sections (two reads each), finish: 8 clock reads.
    expected = {"monitor_s": 1.0, "solver_s": 1.0, "dispatcher_s": 1.0, "total_s": 7.0}
    assert [r.overhead for r in planner.history] == [expected, expected]
    summary = TelemetryStore(planner.history).overhead_summary()
    assert summary["total_s"] == {"mean_s": 7.0, "max_s": 7.0, "count": 2}


def test_prediction_error_is_measured_against_the_previous_promise():
    from repro.core.monitor import ClassMeasurement

    sim, engine, monitor, dispatcher, planner = make_planner()
    for i, value in enumerate([0.30, 0.25, 0.35]):
        monitor._last_measurement["class3"] = ClassMeasurement(
            "class3", "response_time", value, 5, float(i)
        )
        planner.run_interval()
    first, second, third = (r.predictions["class3"] for r in planner.history)
    assert first.error is None and first.realized == 0.30
    assert first.predicted is not None
    assert second.error == pytest.approx(0.25 - first.predicted)
    assert third.error == pytest.approx(0.35 - second.predicted)
    assert planner.history[1].measurements["class3"].value == 0.25


def test_no_measurements_yields_stable_plan():
    """With every class assumed at goal, consecutive plans agree."""
    sim, engine, monitor, dispatcher, planner = make_planner()
    first = planner.run_interval().plan
    second = planner.run_interval().plan
    assert first == second


def test_two_oltp_classes_plan_without_a_regression_pair():
    """The planner itself takes any class set (in-engine control runs two
    OLTP classes)."""
    oltp_a = ServiceClass("a", "oltp", ResponseTimeGoal(0.2), 1)
    oltp_b = ServiceClass("b", "oltp", ResponseTimeGoal(0.3), 2)
    sim, engine, monitor, dispatcher, planner = make_planner(classes=[oltp_a, oltp_b])
    for _ in range(3):
        sim.run_until(sim.now + 10.0)
        assert set(planner.run_interval().plan) == {"a", "b"}


def test_offline_mode_never_feeds_regression():
    """The paper model's slope is the offline constant, whatever the
    planner observes (Section 3.2)."""
    sim, engine, monitor, dispatcher, planner = make_planner()
    from repro.core.monitor import ClassMeasurement

    # Alternate violating / meeting so the planned OLTP limit moves.
    for i, value in enumerate([0.40, 0.15, 0.40, 0.15, 0.40]):
        monitor._last_measurement["class3"] = ClassMeasurement(
            "class3", "response_time", value, 5, float(i)
        )
        planner.run_interval()
    assert len({record.plan.limit("class3") for record in planner.history}) > 1
    assert planner.model.oltp.slope == -4.2e-6


def test_interval_rows_are_real_named_tuples():
    # The per-interval rows skip their generated constructors (tuple.__new__)
    # yet keep their type, fields, repr, _replace and pickling.
    import pickle

    from repro.core.dispatcher import ClassAccounting
    from repro.core.modeling.protocol import ClassMixState, MixSnapshot

    sim, engine, monitor, dispatcher, planner = make_planner()
    accounting = dispatcher.class_accounting("class1")
    assert type(accounting) is ClassAccounting
    assert accounting == ClassAccounting(*accounting)
    assert repr(accounting) == repr(ClassAccounting(*accounting))
    mix = planner._mix_snapshot({}, now=3.0)
    assert type(mix) is MixSnapshot and mix.time == 3.0
    for state in mix.classes:
        assert type(state) is ClassMixState
        assert repr(state) == repr(ClassMixState(*state))
        assert state._replace(limit=1.0).limit == 1.0
        assert pickle.loads(pickle.dumps(state)) == state
    assert [state.name for state in mix.classes] == [c.name for c in planner.classes]
