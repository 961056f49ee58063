"""Tests for the validation harness wiring and modes."""

import json

import pytest

from repro.errors import InvariantViolation, SchedulingError
from repro.experiments.runner import ExperimentSpec, assemble_run, run_spec
from repro.faults import FaultInjector
from repro.obs.live import TelemetryHub
from repro.validation import (
    ControlLoopWorld,
    ValidationHarness,
    attach_harness,
    core_invariants,
)

from tests.validation.conftest import make_qs_bundle, small_config


class TestCleanRuns:
    def test_strict_clean_run_has_zero_violations(self):
        result = run_spec(ExperimentSpec(
            controller="qs", config=small_config(), invariants="strict"
        ))
        harness = result.extras["validation"]
        assert harness.mode == "strict"
        assert harness.violations == []
        assert harness.checks_run > 0
        assert result.extras["telemetry"].violations() == []

    def test_off_mode_attaches_nothing(self):
        result = run_spec(ExperimentSpec(
            controller="qs", config=small_config(), invariants="off"
        ))
        assert "validation" not in result.extras

    def test_unknown_mode_rejected(self, qs_bundle):
        with pytest.raises(SchedulingError):
            attach_harness(qs_bundle, mode="paranoid")


class TestWorldConstruction:
    def test_from_bundle_sees_scheduler_components(self, qs_bundle):
        world = ControlLoopWorld.from_bundle(qs_bundle)
        scheduler = qs_bundle.controller
        assert world.dispatcher is scheduler.dispatcher
        assert world.monitor is scheduler.monitor
        assert world.planner is scheduler.planner
        assert [c.name for c in world.controlled_classes()] == ["class1", "class2"]

    def test_from_scheduler_equivalent(self, qs_bundle):
        world = ControlLoopWorld.from_scheduler(qs_bundle.controller)
        assert world.dispatcher is qs_bundle.controller.dispatcher
        assert world.sim is qs_bundle.sim

    def test_core_suite_covers_the_named_invariants(self, qs_bundle):
        registry = core_invariants(ControlLoopWorld.from_bundle(qs_bundle))
        assert set(registry.names) == {
            "dispatcher_in_flight_consistent",
            "dispatcher_engine_agreement",
            "plan_limits_nonnegative",
            "plan_spends_system_limit",
            "class_conservation",
            "control_tables_are_live",
            "velocity_in_unit_interval",
        }

    def test_baseline_controller_gets_reduced_suite(self):
        from repro.experiments.runner import build_bundle, make_controller
        from repro.workloads.schedule import constant_schedule

        config = small_config()
        bundle = build_bundle(
            config=config,
            schedule=constant_schedule(30.0, 1, {"class1": 1, "class3": 1}),
        )
        make_controller(bundle, "none")
        registry = core_invariants(ControlLoopWorld.from_bundle(bundle))
        # No dispatcher, monitor or planner: only the patroller's tables.
        assert registry.names == ["control_tables_are_live"]

    @pytest.mark.parametrize("controller", ["none", "qp", "qp_nopriority", "mpl"])
    def test_every_baseline_controller_registers_an_invariant(self, controller):
        result = run_spec(ExperimentSpec(
            controller=controller, config=small_config(), invariants="strict"
        ))
        harness = result.extras["validation"]
        assert "control_tables_are_live" in harness.registry.names
        assert harness.checks_run > 0
        assert harness.violations == []


class TestModes:
    def test_strict_mode_raises_mid_run(self, qs_bundle):
        harness = attach_harness(qs_bundle, mode="strict")
        injector = FaultInjector(qs_bundle)
        qs_bundle.controller.start()
        qs_bundle.manager.start()
        qs_bundle.sim.schedule(
            5.0, lambda: injector.leak_dispatcher_slot("class1")
        )
        with pytest.raises(InvariantViolation):
            qs_bundle.run()
        assert harness.violations  # recorded before raising

    def test_warn_mode_records_without_raising(self, qs_bundle):
        harness = attach_harness(qs_bundle, mode="warn")
        injector = FaultInjector(qs_bundle)
        qs_bundle.controller.start()
        qs_bundle.manager.start()
        qs_bundle.sim.schedule(
            5.0, lambda: injector.leak_dispatcher_slot("class1")
        )
        qs_bundle.run()  # must not raise
        names = {v.name for v in harness.violations}
        assert "dispatcher_in_flight_consistent" in names

    def test_off_mode_check_is_noop(self, qs_bundle):
        world = ControlLoopWorld.from_bundle(qs_bundle)
        harness = ValidationHarness(world, mode="off")
        FaultInjector(qs_bundle).leak_dispatcher_slot("class1")
        assert harness.check() == []
        assert harness.checks_run == 0


class TestTelemetryEmbedding:
    def test_violations_land_in_the_interval_record(self, qs_bundle):
        harness = attach_harness(qs_bundle, mode="warn")
        injector = FaultInjector(qs_bundle)
        qs_bundle.controller.start()
        qs_bundle.manager.start()
        # A leaked slot persists across re-plans (unlike a corrupted plan,
        # which the next interval's fresh plan would replace), so every
        # subsequent boundary check sees it.
        qs_bundle.sim.schedule(
            5.0, lambda: injector.leak_dispatcher_slot("class1")
        )
        qs_bundle.run()
        store = qs_bundle.controller.telemetry
        embedded = store.violations()
        assert embedded
        assert any(
            v["name"] == "dispatcher_in_flight_consistent" for v in embedded
        )
        # And they survive the JSONL export (what `repro trace` emits).
        rows = [json.loads(line) for line in store.to_jsonl().splitlines()]
        assert any(row["violations"] for row in rows)
        assert harness.violations

    def test_on_demand_check_does_not_pollute_interval_records(self, qs_bundle):
        harness = attach_harness(qs_bundle, mode="warn")
        injector = FaultInjector(qs_bundle)
        qs_bundle.controller.start()
        qs_bundle.manager.start()
        qs_bundle.run(horizon=12.0)  # past the first control interval
        injector.leak_dispatcher_slot("class1")
        qs_bundle.sim.run_until(13.0)
        found = harness.check()  # between interval boundaries
        assert found
        # The interval record at t=10 must not carry a violation observed
        # at t=13; it rides only in the harness log.
        store = qs_bundle.controller.telemetry
        assert store.violations() == []

    @pytest.mark.parametrize("mode", ["warn", "strict"])
    def test_corruption_lands_in_exactly_its_interval_record_and_hub_event(
        self, mode
    ):
        """A slot leaked at t=15 is first seen at the t=20 boundary: that
        interval's record (the one the harness was handed) carries the
        violations, the t=10 record stays clean, and the hub publishes
        what the record holds.  Strict mode embeds before it raises."""
        hub = TelemetryHub()
        subscription = hub.subscribe(max_queue=10_000)
        result = assemble_run(
            ExperimentSpec(controller="qs", config=small_config(), invariants=mode),
            hub=hub,
        )
        bundle = result.bundle
        injector = FaultInjector(bundle)
        bundle.sim.schedule(15.0, lambda: injector.leak_dispatcher_slot("class1"))
        try:
            if mode == "strict":
                with pytest.raises(InvariantViolation):
                    bundle.run()
            else:
                bundle.run()
        finally:
            bundle.close()
        history = bundle.controller.planner.history
        harness = result.extras["validation"]
        assert history[0].time == 10.0 and history[0].violations == []
        detected = history[1]
        assert detected.time == 20.0
        assert {v["name"] for v in detected.violations} >= {
            "dispatcher_in_flight_consistent"
        }
        assert all(v["time"] == 20.0 for v in detected.violations)
        assert [v.to_dict() for v in harness.violations] == [
            v for record in history for v in record.violations
        ]
        events = [e for e in subscription.drain() if e.type == "interval"]
        if mode == "strict":
            # The run died inside the t=20 decision: nothing after it
            # exists, but the publisher (after the harness) was still
            # handed that interval, violations included.
            assert len(history) == 2
            assert [e.record.interval_index for e in events] == [0, 1]
            assert events[-1].to_dict()["data"]["record"]["violations"]
        else:
            assert len(events) == len(history) > 2
        for event in events:
            record = history[event.record.interval_index]
            assert event.record is record
            wire = event.to_dict()["data"]
            assert wire["interval_index"] == record.interval_index
            assert wire["record"]["violations"] == record.violations
            assert wire["record"] == record.to_dict()

    def test_publisher_attached_before_the_harness_still_carries_violations(self):
        """The event holds the record, not a rendering made when the
        publisher ran: violations a *later* listener writes into it are in
        the wire form (before the hub carried the record, a publisher ahead
        of the harness published the interval without them)."""
        from repro.obs.live import RunPublisher

        bundle = make_qs_bundle()
        scheduler = bundle.controller
        hub = TelemetryHub()
        subscription = hub.subscribe(max_queue=10_000)
        assert RunPublisher(hub, bundle, scheduler).attach()
        attach_harness(bundle, mode="strict")
        scheduler.start()
        bundle.manager.start()
        injector = FaultInjector(bundle)
        bundle.sim.schedule(15.0, lambda: injector.leak_dispatcher_slot("class1"))
        with pytest.raises(InvariantViolation):
            bundle.run()
        last = [e for e in subscription.drain() if e.type == "interval"][-1]
        assert last.time == 20.0 and last.record is scheduler.planner.history[-1]
        for wire in (last.to_dict()["data"], hub.snapshot()["shards"]["fleet"]["data"]):
            assert {v["name"] for v in wire["record"]["violations"]} >= {
                "dispatcher_in_flight_consistent"
            }

    def test_strict_run_spec_publishes_the_tripping_interval_then_raises(
        self, monkeypatch
    ):
        """Through ``run_spec``: the hub's last ``interval`` event is the
        interval whose invariant check failed, and the failure still
        propagates to the caller."""
        from repro.experiments import runner

        def assemble_with_leak(spec, hub=None, shard=None):
            result = assemble_run(spec, hub=hub, shard=shard)
            injector = FaultInjector(result.bundle)
            result.bundle.sim.schedule(
                15.0, lambda: injector.leak_dispatcher_slot("class1")
            )
            return result

        monkeypatch.setattr(runner, "assemble_run", assemble_with_leak)
        hub = TelemetryHub()
        subscription = hub.subscribe(max_queue=10_000)
        with pytest.raises(InvariantViolation):
            run_spec(
                ExperimentSpec(
                    controller="qs", config=small_config(), invariants="strict"
                ),
                hub=hub,
            )
        last = [e for e in subscription.drain() if e.type == "interval"][-1]
        assert last.time == 20.0
        assert {v["name"] for v in last.record.violations} >= {
            "dispatcher_in_flight_consistent"
        }
