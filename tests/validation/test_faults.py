"""Fault-injection tests: each core invariant fires under its seeded fault.

The harness is only trustworthy if every invariant demonstrably *can* fire;
each test seeds the one fault an invariant exists to catch and asserts the
violation is named, while behavioral storms on the fixed accounting paths
stay violation-free.
"""

import json
import math

import pytest

from repro.errors import ConfigurationError, SchedulingError
from repro.faults import FaultInjector
from repro.validation import ControlLoopWorld, ValidationHarness, attach_harness

from tests.validation.conftest import make_qs_bundle


def started_harness(bundle, mode="warn"):
    harness = attach_harness(bundle, mode=mode)
    bundle.controller.start()
    bundle.manager.start()
    return harness


def violation_names(harness):
    return {v.name for v in harness.violations}


class TestCorruptionsTripTheirInvariant:
    def test_leaked_slot_trips_in_flight_consistency(self, qs_bundle):
        harness = started_harness(qs_bundle)
        qs_bundle.run(horizon=5.0)
        FaultInjector(qs_bundle).leak_dispatcher_slot("class1", cost=750.0)
        found = harness.check()
        assert "dispatcher_in_flight_consistent" in {v.name for v in found}
        # The phantom slot also breaks released = in-flight + completed +
        # cancelled, so conservation fires alongside.
        assert "class_conservation" in {v.name for v in found}

    def test_negative_plan_limit_trips_nonnegativity(self, qs_bundle):
        harness = started_harness(qs_bundle)
        qs_bundle.run(horizon=5.0)
        FaultInjector(qs_bundle).corrupt_plan(mode="negative")
        assert "plan_limits_nonnegative" in {v.name for v in harness.check()}

    def test_undersumming_plan_trips_spend_check(self, qs_bundle):
        harness = started_harness(qs_bundle)
        qs_bundle.run(horizon=5.0)
        FaultInjector(qs_bundle).corrupt_plan(mode="undersum", amount=9_000.0)
        assert "plan_spends_system_limit" in {v.name for v in harness.check()}

    def test_stale_open_row_trips_control_tables_liveness(self, qs_bundle):
        harness = started_harness(qs_bundle)
        qs_bundle.run(horizon=5.0)
        FaultInjector(qs_bundle).corrupt_control_tables("class1")
        assert "control_tables_are_live" in {v.name for v in harness.check()}

    def test_stale_open_row_trips_liveness_without_a_monitor(self):
        from repro.experiments.runner import build_bundle, make_controller
        from repro.workloads.schedule import constant_schedule
        from tests.validation.conftest import small_config

        bundle = build_bundle(
            config=small_config(),
            schedule=constant_schedule(30.0, 1, {"class1": 1, "class3": 1}),
        )
        make_controller(bundle, "qp")
        harness = started_harness(bundle)
        bundle.run(horizon=5.0)
        assert harness.check() == []
        FaultInjector(bundle).corrupt_control_tables("class1")
        assert "control_tables_are_live" in {v.name for v in harness.check()}

    def test_out_of_range_velocity_trips_range_check(self, qs_bundle):
        harness = started_harness(qs_bundle)
        qs_bundle.run(horizon=5.0)
        FaultInjector(qs_bundle).corrupt_velocity_sample("class1", value=1.5)
        assert "velocity_in_unit_interval" in {v.name for v in harness.check()}

    def test_corrupt_regression_on_paper_model_is_refused(self, qs_bundle):
        """The paper model's slope is a calibrated constant: there is no
        online state to corrupt, and the injector says so."""
        started_harness(qs_bundle)
        qs_bundle.run(horizon=5.0)
        injector = FaultInjector(qs_bundle)
        with pytest.raises(ConfigurationError, match="no online state"):
            injector.corrupt_oltp_regression()
        assert injector.injected == []

    def test_regression_corruption_goes_through_public_seam(self, monkeypatch):
        """The injector must use the model's ``corrupt()`` seam, never
        reach into private state.  A corrupted learned model predicts NaN,
        the plan still spends the system limit, and ``reset()`` restores
        the model."""
        bundle = make_qs_bundle(model="learned")
        harness = started_harness(bundle)
        bundle.run(horizon=15.0)
        planner = bundle.controller.planner
        model = planner.model
        calls = []
        original = model.corrupt
        monkeypatch.setattr(
            model,
            "corrupt",
            lambda mode="regression": (calls.append(mode), original(mode))[1],
        )
        FaultInjector(bundle).corrupt_oltp_regression()
        assert calls == ["regression"]
        assert model.describe()["corrupted"] is True
        json.dumps(model.describe())
        record = planner.run_interval()
        assert all(math.isnan(p.predicted) for p in record.predictions.values())
        assert record.plan.total_allocated == bundle.config.system_cost_limit
        assert "plan_spends_system_limit" not in {v.name for v in harness.check()}
        model.reset()
        assert model.describe()["corrupted"] is False
        assert model.observations == 0
        record = planner.run_interval()
        assert all(math.isfinite(p.predicted) for p in record.predictions.values())

    def test_dropped_dispatcher_completion_trips_engine_agreement(self, qs_bundle):
        harness = started_harness(qs_bundle)
        injector = FaultInjector(qs_bundle)
        injector.drop_completions(count=1, class_name="class1")
        qs_bundle.run()
        names = violation_names(harness)
        assert "dispatcher_engine_agreement" in names


class TestBehavioralFaultsStayClean:
    """The fixed accounting paths must absorb hostile-but-legal workload
    events with every invariant intact (strict mode completes)."""

    def test_cancel_storm_is_absorbed(self, qs_bundle):
        harness = started_harness(qs_bundle, mode="strict")
        injector = FaultInjector(qs_bundle)
        injector.arrival_burst("class1", count=12, delay=4.0)
        injector.cancel_storm(delay=8.0)  # cancel every queued query
        injector.cancel_storm(class_name="class2", delay=25.0, fraction=0.5)
        qs_bundle.run()
        assert harness.violations == []
        assert any(f["fault"] == "cancel_storm" for f in injector.injected)
        # The storm actually cancelled something, and the dispatcher
        # accounted for it at queue level.
        cancelled = sum(
            f.get("cancelled", 0)
            for f in injector.injected
            if f["fault"] == "cancel_storm"
        )
        dispatcher = qs_bundle.controller.dispatcher
        queue_level = sum(
            dispatcher.queue_cancelled_count(c.name)
            for c in qs_bundle.classes
            if c.directly_controlled
        )
        assert cancelled > 0
        assert queue_level == cancelled

    def test_release_latency_jitter_is_absorbed(self, qs_bundle):
        harness = started_harness(qs_bundle, mode="strict")
        injector = FaultInjector(qs_bundle)
        injector.release_latency_jitter(2.0, delay=5.0)
        injector.arrival_burst("class2", count=8, delay=6.0)
        injector.release_latency_jitter(0.05, delay=30.0)
        qs_bundle.run()
        assert harness.violations == []

    def test_injection_log_records_every_fault(self, qs_bundle):
        started_harness(qs_bundle)
        injector = FaultInjector(qs_bundle)
        injector.arrival_burst("class1", count=3, delay=2.0)
        injector.cancel_storm(delay=3.0)
        qs_bundle.run(horizon=4.0)
        assert [f["fault"] for f in injector.injected] == [
            "arrival_burst",
            "cancel_storm",
        ]
        assert injector.injected[0]["time"] == pytest.approx(2.0)


class TestInjectorGuards:
    def test_unknown_plan_corruption_rejected(self, qs_bundle):
        with pytest.raises(SchedulingError):
            FaultInjector(qs_bundle).corrupt_plan(mode="jackpot")

    def test_baseline_bundle_has_no_dispatcher_to_fault(self):
        from repro.experiments.runner import build_bundle, make_controller
        from repro.workloads.schedule import constant_schedule
        from tests.validation.conftest import small_config

        bundle = build_bundle(
            config=small_config(),
            schedule=constant_schedule(30.0, 1, {"class1": 1, "class3": 1}),
        )
        make_controller(bundle, "none")
        with pytest.raises(SchedulingError):
            FaultInjector(bundle).leak_dispatcher_slot("class1")

    def test_world_helper_reflects_mode_guard(self, qs_bundle):
        with pytest.raises(SchedulingError):
            ValidationHarness(
                ControlLoopWorld.from_bundle(qs_bundle), mode="bogus"
            )


class TestScheduledFaults:
    """The data-driven fault path: ScheduledFault -> FaultInjector.apply."""

    def _none_bundle(self):
        from repro.experiments.runner import build_bundle, make_controller
        from repro.workloads.schedule import constant_schedule
        from tests.validation.conftest import small_config

        bundle = build_bundle(
            config=small_config(),
            schedule=constant_schedule(30.0, 1, {"class1": 1, "class3": 1}),
        )
        make_controller(bundle, "none")
        return bundle

    def test_apply_schedules_at_absolute_time(self, qs_bundle):
        from repro.faults import ScheduledFault

        started_harness(qs_bundle)
        injector = FaultInjector(qs_bundle)
        injector.apply(ScheduledFault(
            kind="arrival_burst", at=3.0,
            params={"class_name": "class1", "count": 2},
        ))
        qs_bundle.run(horizon=5.0)
        assert injector.injected[0]["fault"] == "arrival_burst"
        assert injector.injected[0]["time"] == pytest.approx(3.0)

    def test_unknown_kind_rejected_before_scheduling(self, qs_bundle):
        from repro.faults import ScheduledFault

        with pytest.raises(SchedulingError, match="unknown behavioral fault"):
            FaultInjector(qs_bundle).apply(ScheduledFault(kind="meteor"))

    def test_negative_time_rejected(self, qs_bundle):
        from repro.faults import ScheduledFault

        with pytest.raises(SchedulingError, match="must be >= 0"):
            FaultInjector(qs_bundle).apply(
                ScheduledFault(kind="cancel_storm", at=-1.0)
            )

    def test_missing_dispatcher_names_fault_and_controller(self):
        """Regression: a fault needing an absent component raises a clear
        SchedulingError naming both, instead of failing obscurely later."""
        from repro.faults import ScheduledFault

        injector = FaultInjector(self._none_bundle())
        with pytest.raises(SchedulingError) as excinfo:
            injector.apply(ScheduledFault(kind="cancel_storm", at=1.0))
        message = str(excinfo.value)
        assert "'cancel_storm'" in message
        assert "dispatcher" in message
        assert "QPStaticPolicy" in message

    def test_second_drop_completions_on_one_component_stacks(self):
        """Regression: a second ``drop_completions`` on the component the
        first one already wrapped used to miss its subscription and crash
        the run; now both are logged and exactly their summed count of
        completions goes missing."""
        from repro.experiments.runner import ExperimentSpec, run_spec
        from repro.faults import ScheduledFault
        from repro.workloads.schedule import constant_schedule
        from tests.validation.conftest import small_config

        drops = {"class_name": "class2"}
        result = run_spec(ExperimentSpec(
            controller="qs",
            config=small_config(),
            schedule=constant_schedule(30.0, 2, {"class1": 2, "class2": 2, "class3": 3}),
            faults=(
                ScheduledFault("drop_completions", at=5.0, params=dict(drops, count=2)),
                ScheduledFault("drop_completions", at=10.0, params=dict(drops, count=3)),
            ),
        ))
        dropped = [f for f in result.extras["faults"].injected
                   if f["fault"] == "drop_completions"]
        assert [(f["time"], f["count"]) for f in dropped] == [(5.0, 2), (10.0, 3)]
        # Every class2 statement is released by the dispatcher, so each
        # completion it did not hear of was dropped.
        heard = result.bundle.controller.dispatcher.completed_count("class2")
        assert result.collector.completions_by_class()["class2"] - heard == 2 + 3

    def test_drops_without_a_class_count_bypassing_completions_too(self):
        """``class_name=None`` counts any completion, the OLTP statements
        the dispatcher is never handed included — although the dispatcher
        itself now hears only its gated classes' completions."""
        from repro.experiments.runner import ExperimentSpec, assemble_run, finish_run
        from repro.faults import ScheduledFault
        from repro.workloads.schedule import constant_schedule
        from tests.validation.conftest import small_config

        count, at = 300, 5.0
        result = assemble_run(ExperimentSpec(
            controller="qs",
            config=small_config(),
            schedule=constant_schedule(30.0, 2, {"class1": 2, "class2": 2, "class3": 3}),
            faults=(ScheduledFault("drop_completions", at=at, params={"count": count}),),
        ))
        finished = []
        result.bundle.patroller.subscribe("completed", finished.append)
        result.bundle.run()
        finish_run(result)
        dropped = [q.class_name for q in finished if q.finish_time >= at][:count]
        gated = [name for name in dropped if name != "class3"]
        dispatcher = result.bundle.controller.dispatcher
        heard = sum(dispatcher.completed_count(name) for name in ("class1", "class2"))
        completed = result.collector.completions_by_class()
        # Pinned: of the 300 completions swallowed, 298 were bypassing OLTP
        # statements and two were gated ones the dispatcher never heard of.
        assert (len(dropped), len(gated)) == (300, 2)
        assert completed["class1"] + completed["class2"] - heard == len(gated)

    def test_missing_dispatcher_named_for_drop_completions(self):
        injector = FaultInjector(self._none_bundle())
        with pytest.raises(SchedulingError) as excinfo:
            injector.drop_completions()
        assert "'drop_completions'" in str(excinfo.value)
        assert "dispatcher" in str(excinfo.value)

    def test_cancel_storm_fraction_bounds_checked(self, qs_bundle):
        with pytest.raises(SchedulingError, match="fraction"):
            FaultInjector(qs_bundle).cancel_storm(fraction=0.0)
        with pytest.raises(SchedulingError, match="fraction"):
            FaultInjector(qs_bundle).cancel_storm(fraction=1.5)

    def test_cancel_storm_on_unqueued_class_logs_a_skip(self, qs_bundle):
        """Regression: storming a class the dispatcher does not queue
        (OLTP, or unknown) records a skip entry instead of silently
        cancelling nothing."""
        started_harness(qs_bundle)
        injector = FaultInjector(qs_bundle)
        injector.cancel_storm(class_name="class3", delay=1.0)  # OLTP: bypasses
        injector.cancel_storm(class_name="ghost", delay=2.0)   # unknown
        qs_bundle.run(horizon=3.0)
        assert len(injector.injected) == 2
        for entry in injector.injected:
            assert entry["fault"] == "cancel_storm"
            assert entry["cancelled"] == 0
            assert "not queued by the dispatcher" in entry["skipped"]
