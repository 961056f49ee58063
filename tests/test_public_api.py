"""Public-API integrity checks.

Guards the package surface a downstream user sees: every ``__all__`` name
resolves, carries a docstring, and the headline entry points accept their
documented signatures.
"""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.dbms",
    "repro.patroller",
    "repro.workloads",
    "repro.core",
    "repro.metrics",
    "repro.experiments",
    "repro.validation",
    "repro.obs",
    "repro.scenarios",
    "repro.shard",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_names_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), package_name
    for name in package.__all__:
        assert hasattr(package, name), "{}.{} missing".format(package_name, name)


@pytest.mark.parametrize("package_name", PACKAGES)
def test_public_objects_have_docstrings(package_name):
    package = importlib.import_module(package_name)
    undocumented = []
    for name in package.__all__:
        obj = getattr(package, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ or "").strip():
                undocumented.append(name)
    assert undocumented == [], "undocumented public API: {}".format(undocumented)


def test_package_docstrings_reference_the_paper():
    import repro

    assert "Autonomic DBMSs" in repro.__doc__
    assert repro.__version__


def test_public_classes_expose_documented_methods():
    """Spot-check the objects the README shows."""
    import dataclasses

    from repro import ExperimentSpec, default_config, paper_classes, run_spec

    assert list(inspect.signature(run_spec).parameters)[0] == "spec"
    assert [f.name for f in dataclasses.fields(ExperimentSpec)][:2] == [
        "controller",
        "config",
    ]
    config = default_config()
    assert config.system_cost_limit == 30_000.0
    classes = paper_classes()
    assert [c.name for c in classes] == ["class1", "class2", "class3"]


def test_error_hierarchy_rooted_at_repro_error():
    from repro.errors import (
        ConfigurationError,
        InvariantViolation,
        PatrollerError,
        ReproError,
        SchedulingError,
        SimulationError,
        WorkloadError,
    )

    for error in (
        ConfigurationError,
        InvariantViolation,
        PatrollerError,
        SchedulingError,
        SimulationError,
        WorkloadError,
    ):
        assert issubclass(error, ReproError)
        assert issubclass(error, Exception)


def test_controller_names_match_runner():
    from repro.experiments.runner import CONTROLLER_NAMES, make_controller, build_bundle
    from repro.config import WorkloadScaleConfig, default_config
    from repro.workloads.schedule import constant_schedule

    config = default_config(scale=WorkloadScaleConfig(period_seconds=10.0, num_periods=1))
    for name in CONTROLLER_NAMES:
        bundle = build_bundle(
            config=config,
            schedule=constant_schedule(10.0, 1, {"class1": 1, "class2": 1, "class3": 1}),
        )
        controller = make_controller(bundle, name)
        assert hasattr(controller, "start")
        assert hasattr(controller, "describe")
        assert controller.describe()


#: Values no entry point sets are module constants, not arguments.
CONSTANT_NOT_ARGUMENT = [
    ("repro.workloads.client", "ClosedLoopClient", ("patience",)),
    ("repro.patroller.policy", "QPStaticPolicy", ("max_query_cost",)),
    ("repro.core.mpl", "MPLController", (
        "initial_mpl", "min_mpl", "max_mpl", "decrease_factor", "snapshot_staleness",
    )),
    ("repro.core.detection", "WorkloadDetector", (
        "bucket_seconds", "ewma_alpha", "shift_factor", "warmup_buckets", "min_shift_gap",
    )),
    ("repro.core.scheduler", "QueryScheduler", ("initial_plan",)),
    ("repro.core.utility", "SigmoidUtility", ("steepness", "epsilon")),
    ("repro.core.utility", "StepUtility", ("ramp",)),
    ("repro.patroller.policy", "percentile_thresholds", (
        "large_fraction", "medium_fraction",
    )),
    ("repro.patroller.policy", "standard_groups", (
        "small_slots", "medium_slots", "large_slots",
    )),
    ("repro.core.service_class", "paper_classes", (
        "class1_goal", "class2_goal", "class3_goal",
    )),
    ("repro.experiments.runner", "make_controller", ("static_olap_limit",)),
]


@pytest.mark.parametrize("module, name, gone", CONSTANT_NOT_ARGUMENT)
def test_constants_are_not_arguments(module, name, gone):
    parameters = inspect.signature(getattr(importlib.import_module(module), name)).parameters
    assert not set(gone) & set(parameters)


def test_removed_behaviours_are_not_reachable():
    from repro.core.planner import SchedulingPlanner
    from repro.core.scheduler import QueryScheduler
    from repro.dbms.query import QueryState
    from repro.experiments.runner import ExperimentSpec
    from repro.patroller.patroller import LIFECYCLE_EVENTS, QueryPatroller

    with pytest.raises(ImportError):
        importlib.import_module("repro.core.classifier")
    assert "Classifier" not in importlib.import_module("repro.core").__all__
    assert not hasattr(QueryPatroller, "reject")
    assert "rejected" not in LIFECYCLE_EVENTS
    assert "REJECTED" not in QueryState.__members__
    assert list(inspect.signature(QueryScheduler.enable_detection).parameters) == ["self"]
    assert list(inspect.signature(SchedulingPlanner.trigger_early).parameters) == ["self"]
    assert not hasattr(importlib.import_module("repro.core.detection").WorkloadDetector,
                       "forecast_rate")
    assert "static_olap_limit" not in inspect.signature(ExperimentSpec).parameters
    # Figures 4-7 are runs, and a run's report is what `repro run` prints.
    with pytest.raises(ImportError):
        importlib.import_module("repro.experiments.reportgen")
    figures = importlib.import_module("repro.experiments.figures")
    assert not any(hasattr(figures, "figure{}".format(n)) for n in (4, 5, 6, 7))
    report = importlib.import_module("repro.metrics.report")
    assert not hasattr(report.Table, "markdown")
    assert not hasattr(report, "render_series_chart")
