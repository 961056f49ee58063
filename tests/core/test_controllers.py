"""Tests for the controller table and the static baselines built from it."""

from dataclasses import replace

import pytest

from repro.cli import build_parser
from repro.config import (
    MonitorConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.core.controllers import (
    CONTROLLER_NAMES,
    CONTROLLERS,
    PLANNER_CONTROLLER_NAMES,
)
from repro.core.service_class import ResponseTimeGoal, ServiceClass
from repro.dbms.query import QueryState
from repro.errors import ConfigurationError, ScenarioError
from repro.experiments import runner
from repro.experiments.runner import (
    ExperimentSpec,
    build_bundle,
    make_controller,
    run_spec,
)
from repro.patroller.policy import QPStaticPolicy
from repro.scenarios import load_library_scenario
from repro.workloads.schedule import constant_schedule

#: ``describe()`` of every entry on the default configuration, as printed
#: by the commit before the wrapper classes were folded into the table.
DESCRIPTIONS = {
    "none": ("no_control", "No class control (system cost limit 30000 timerons only)"),
    "qp": (
        "qp_priority",
        "DB2 QP static control (groups 5%/15%/80%, priorities on, "
        "static OLAP limit 30000)",
    ),
    "qp_nopriority": (
        "qp_priority",
        "DB2 QP static control (groups 5%/15%/80%, priorities off, "
        "static OLAP limit 30000)",
    ),
    "qs": (
        "query_scheduler",
        "Query Scheduler (dynamic cost-based control, 3 classes, interval 60s, "
        "utility 'piecewise')",
    ),
    "qs_detect": (
        "query_scheduler",
        "Query Scheduler (dynamic cost-based control, 3 classes, interval 60s, "
        "utility 'piecewise')",
    ),
    "mpl": ("mpl", "MPL admission control (AIMD, interval 60s)"),
    "direct": ("direct", "Direct in-engine control (3 classes, interval 60s)"),
}


def build(name):
    bundle = build_bundle(config=default_config())
    return bundle, make_controller(bundle, name)


class TestNoControl:
    def test_start_installs_single_limit_policy(self):
        bundle, policy = build("none")
        assert isinstance(policy, QPStaticPolicy)
        assert policy.groups == []
        assert policy.priorities == {}
        assert policy.global_cost_limit == 30_000.0
        assert bundle.patroller.intercepts("class1")
        assert not bundle.patroller.intercepts("class3")
        policy.start()
        assert bundle.patroller._release_handler == policy.on_intercepted

    def test_invalid_limit(self):
        bundle = build_bundle(config=default_config())
        with pytest.raises(ConfigurationError):
            QPStaticPolicy(bundle.patroller, global_cost_limit=0.0)

    def test_describe(self):
        assert "30000" in build("none")[1].describe()


class TestQPPriority:
    def test_start_builds_three_groups(self):
        _, policy = build("qp")
        assert [g.name for g in policy.groups] == ["small", "medium", "large"]

    def test_priorities_mirror_importance_for_olap_only(self):
        assert build("qp")[1].priorities == {"class1": 1, "class2": 2}

    def test_priority_off_empty_map(self):
        assert build("qp_nopriority")[1].priorities == {}

    def test_requires_history(self):
        """No OLAP class, no cost sample to place the group thresholds."""
        oltp_only = [ServiceClass("tx", "oltp", ResponseTimeGoal(0.25), 1)]
        bundle = build_bundle(
            config=default_config(),
            classes=oltp_only,
            schedule=constant_schedule(30.0, 2, {"tx": 1}),
        )
        with pytest.raises(ConfigurationError):
            make_controller(bundle, "qp")

    def test_describe_reports_priority_state(self):
        assert "priorities on" in build("qp")[1].describe()
        assert "priorities off" in build("qp_nopriority")[1].describe()


class TestTable:
    @pytest.mark.parametrize("name", CONTROLLER_NAMES)
    def test_entry_builds_describes_and_runs_under_strict_invariants(self, name):
        bundle, controller = build(name)
        assert (controller.name, controller.describe()) == DESCRIPTIONS[name]
        _, planned = CONTROLLERS[name]
        assert hasattr(controller, "planner") == planned
        bundle.close()

        config = default_config(
            scale=WorkloadScaleConfig(period_seconds=20.0, num_periods=2),
            monitor=MonitorConfig(snapshot_interval=5.0, response_time_window=10.0),
            planner=PlannerConfig(control_interval=10.0),
        )
        result = run_spec(
            ExperimentSpec(controller=name, config=config, invariants="strict")
        )
        harness = result.extras["validation"]
        assert harness.violations == []
        # The harness checks something: the CLI's "(0 registered" never shows.
        assert len(harness.registry) >= 1
        assert result.collector.total_completions > 0
        assert ("telemetry" in result.extras) == planned

    @pytest.mark.parametrize("name", CONTROLLER_NAMES)
    def test_every_statement_completes_once_on_the_patroller_stream(self, name):
        config = default_config(
            scale=WorkloadScaleConfig(period_seconds=20.0, num_periods=2),
            monitor=MonitorConfig(snapshot_interval=5.0, response_time_window=10.0),
            planner=PlannerConfig(control_interval=10.0),
        )
        result = runner.assemble_run(ExperimentSpec(controller=name, config=config))
        patroller = result.bundle.patroller
        seen = {}
        patroller.subscribe(
            "completed", lambda q: seen.__setitem__(q.query_id, seen.get(q.query_id, 0) + 1)
        )
        intercepted, held, ended = [], set(), set()

        def on_intercepted(query):
            intercepted.append(query)
            held.add(query.query_id)

        patroller.subscribe("intercepted", on_intercepted)
        patroller.subscribe("released", lambda q: held.discard(q.query_id))
        for event in ("cancelled", "completed"):
            patroller.subscribe(event, lambda q: (held.discard(q.query_id),
                                                  ended.add(q.query_id)))
        result.bundle.run()
        runner.finish_run(result)
        assert seen and set(seen.values()) == {1}
        assert len(seen) == result.bundle.engine.completed_queries
        assert len(seen) == result.collector.total_completions

        # The control tables' open rows are exactly the intercepted
        # statements that have not ended, in interception order.
        tables = patroller.tables
        assert list(tables.open()) == [q for q in intercepted if q.query_id not in ended]
        assert len(tables) == patroller.intercepted_count == len(intercepted)
        assert sum(tables.counts_by_status().values()) == patroller.intercepted_count
        queued = [q for q in tables.open() if q.state is QueryState.QUEUED]
        assert patroller.held_queries == len(queued) == len(held)

    def test_every_name_list_is_read_from_the_table(self):
        assert CONTROLLER_NAMES == tuple(CONTROLLERS) == tuple(DESCRIPTIONS)
        assert runner.CONTROLLER_NAMES is CONTROLLER_NAMES
        assert PLANNER_CONTROLLER_NAMES == ("qs", "qs_detect", "direct")
        parser = build_parser()
        commands = parser._subparsers._group_actions[0].choices

        def choices(command):
            return next(
                action.choices
                for action in commands[command]._actions
                if action.dest == "controller"
            )

        assert tuple(choices("run")) == CONTROLLER_NAMES
        assert tuple(choices("sweep")) == CONTROLLER_NAMES

    def test_scenario_validation_accepts_exactly_the_table(self):
        scenario = load_library_scenario("paper-figure3")
        for name in CONTROLLER_NAMES:
            replace(scenario, controller=name).validate()
        with pytest.raises(ScenarioError):
            replace(scenario, controller="chaos-monkey").validate()
