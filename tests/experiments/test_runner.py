"""Tests for the experiment runner assembly."""

import pytest

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.core.direct import DirectScheduler
from repro.core.mpl import MPLController
from repro.core.scheduler import QueryScheduler
from repro.core.service_class import ServiceClass, VelocityGoal
from repro.errors import ConfigurationError
from repro.patroller.policy import QPStaticPolicy
from repro.experiments.runner import (
    ExperimentSpec,
    build_bundle,
    make_controller,
    run_spec,
)
from repro.workloads.schedule import constant_schedule


def quick_config():
    return default_config(
        scale=WorkloadScaleConfig(period_seconds=30.0, num_periods=2),
        monitor=MonitorConfig(snapshot_interval=5.0, response_time_window=15.0),
        planner=PlannerConfig(control_interval=15.0),
    )


def tiny_schedule():
    return constant_schedule(30.0, 2, {"class1": 2, "class2": 2, "class3": 6})


class TestBuildBundle:
    def test_default_assembly(self):
        bundle = build_bundle(config=quick_config(), schedule=tiny_schedule())
        assert {c.name for c in bundle.classes} == {"class1", "class2", "class3"}
        assert bundle.mixes["class1"].name == "tpch"
        assert bundle.mixes["class3"].name == "tpcc"
        assert bundle.schedule.num_periods == 2

    def test_default_schedule_is_paper_shape(self):
        bundle = build_bundle(config=quick_config())
        assert bundle.schedule.num_periods == 2  # truncated to config periods
        assert bundle.schedule.period_seconds == 30.0

    def test_historical_costs_cover_olap_templates(self):
        bundle = build_bundle(config=quick_config(), schedule=tiny_schedule())
        costs = bundle.historical_olap_costs()
        assert len(costs) == 18  # shared tpch mix counted once
        assert min(costs) > 0

    def test_schedule_for_unknown_class_rejected(self):
        schedule = constant_schedule(30.0, 2, {"ghost": 1})
        with pytest.raises(ConfigurationError):
            build_bundle(config=quick_config(), schedule=schedule)

    def test_missing_mix_rejected(self):
        classes = [ServiceClass("only", "olap", VelocityGoal(0.5), 1)]
        with pytest.raises(ConfigurationError):
            build_bundle(
                config=quick_config(),
                schedule=constant_schedule(30.0, 2, {"only": 1}),
                classes=classes,
                mixes={},
            )


class TestMakeController:
    @pytest.mark.parametrize(
        "name,expected_type",
        [
            ("none", QPStaticPolicy),
            ("qp", QPStaticPolicy),
            ("qp_nopriority", QPStaticPolicy),
            ("qs", QueryScheduler),
            ("qs_detect", QueryScheduler),
            ("mpl", MPLController),
            ("direct", DirectScheduler),
        ],
    )
    def test_known_controllers(self, name, expected_type):
        bundle = build_bundle(config=quick_config(), schedule=tiny_schedule())
        controller = make_controller(bundle, name)
        assert isinstance(controller, expected_type)
        assert bundle.controller is controller

    def test_qs_detect_attaches_detector(self):
        bundle = build_bundle(config=quick_config(), schedule=tiny_schedule())
        controller = make_controller(bundle, "qs_detect")
        assert controller.detector is not None
        bundle = build_bundle(config=quick_config(), schedule=tiny_schedule())
        plain = make_controller(bundle, "qs")
        assert plain.detector is None

    def test_qp_priority_flag(self):
        bundle = build_bundle(config=quick_config(), schedule=tiny_schedule())
        assert make_controller(bundle, "qp").priorities == {"class1": 1, "class2": 2}
        bundle = build_bundle(config=quick_config(), schedule=tiny_schedule())
        assert make_controller(bundle, "qp_nopriority").priorities == {}

    def test_static_olap_limit_override(self):
        bundle = build_bundle(config=quick_config(), schedule=tiny_schedule())
        controller = make_controller(bundle, "qp", static_olap_limit=12_345.0)
        assert controller.global_cost_limit == 12_345.0

    def test_unknown_name_rejected(self):
        bundle = build_bundle(config=quick_config(), schedule=tiny_schedule())
        with pytest.raises(ConfigurationError):
            make_controller(bundle, "chaos-monkey")


class TestRunExperiment:
    def test_runs_to_horizon_and_collects(self):
        result = run_spec(ExperimentSpec(
            controller="none", config=quick_config(), schedule=tiny_schedule()
        ))
        assert result.bundle.sim.now == pytest.approx(60.0)
        assert result.collector.total_completions > 20
        series = result.performance_series()
        assert set(series) == {"class1", "class2", "class3"}
        assert any(v is not None for v in series["class3"])

    def test_qs_run_records_plans(self):
        result = run_spec(ExperimentSpec(
            controller="qs", config=quick_config(), schedule=tiny_schedule()
        ))
        assert len(result.collector.plan_series("class3")) >= 2
        attainment = result.goal_attainment()
        assert set(attainment) == {"class1", "class2", "class3"}


class TestExperimentSpecIsolation:
    """Regression: specs derived from one base must not share mutable state."""

    def test_backend_options_independent_via_with_overrides(self):
        base = ExperimentSpec(backend_options={"busy_timeout": 1.0})
        derived = base.with_overrides(controller="none")
        derived.backend_options["busy_timeout"] = 99.0
        derived.backend_options["extra"] = True
        assert base.backend_options == {"busy_timeout": 1.0}

    def test_backend_options_independent_via_replace(self):
        import dataclasses

        base = ExperimentSpec(backend_options={"nested": {"a": 1}})
        derived = dataclasses.replace(base)
        derived.backend_options["nested"]["a"] = 2
        assert base.backend_options == {"nested": {"a": 1}}

    def test_constructor_copies_the_caller_dict(self):
        options = {"busy_timeout": 1.0}
        spec = ExperimentSpec(backend_options=options)
        options["busy_timeout"] = 5.0
        assert spec.backend_options == {"busy_timeout": 1.0}

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf"), -5.0, 0.0])
    def test_a_horizon_must_be_finite_and_positive(self, horizon):
        # nan / inf used to run forever, -5 to end in a kernel traceback.
        with pytest.raises(ConfigurationError, match="horizon"):
            ExperimentSpec(horizon=horizon)
        with pytest.raises(ConfigurationError, match="horizon"):
            ExperimentSpec().with_overrides(horizon=horizon)

    def test_a_finite_horizon_is_kept(self):
        assert ExperimentSpec(horizon=12.5).horizon == 12.5
        assert ExperimentSpec().horizon is None

    def test_faults_normalized_to_tuple(self):
        from repro.faults import ScheduledFault

        spec = ExperimentSpec(faults=[ScheduledFault(kind="cancel_storm")])
        assert isinstance(spec.faults, tuple)


class TestRunSpecFaults:
    def test_scheduled_faults_apply_and_ride_in_extras(self):
        from repro.faults import ScheduledFault

        result = run_spec(ExperimentSpec(
            controller="qs",
            config=quick_config(),
            schedule=tiny_schedule(),
            invariants="strict",
            faults=(
                ScheduledFault(
                    kind="arrival_burst", at=10.0,
                    params={"class_name": "class1", "count": 4},
                ),
                ScheduledFault(
                    kind="cancel_storm", at=20.0,
                    params={"class_name": "class1"},
                ),
            ),
        ))
        injector = result.extras["faults"]
        kinds = [entry["fault"] for entry in injector.injected]
        assert kinds == ["arrival_burst", "cancel_storm"]
        assert result.extras["validation"].violations == []
