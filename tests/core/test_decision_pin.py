"""Decision pin for the greedy + learned control path.

``tests/runtime/test_sim_regression.py`` pins three classes, exhaustive
search and the paper model.  This pins what that leaves out: eight
classes (so the solver takes the greedy ascent), ``model="learned"`` (so
every prediction carries the RLS residual correction) and a 1 s control
interval — every plan the planner installed, the solver's score for it
and the per-class performance series, compared with *exact* equality.

The fixture was recorded on CPython 3.11 before the control-path
optimisation touched ``src/``.  A difference means a floating-point
operation on the decision path changed order, not that the fixture is
stale; regenerate it (``python tests/core/test_decision_pin.py``) only
for a change that is meant to move decisions.
"""

from __future__ import annotations

import json
import os

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.core.service_class import ResponseTimeGoal, ServiceClass, VelocityGoal
from repro.experiments.runner import ExperimentSpec, run_spec
from repro.workloads.schedule import PeriodSchedule

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "greedy_learned_decisions.json"
)

PERIODS = 3
PERIOD_SECONDS = 30.0


def _pin_spec() -> ExperimentSpec:
    classes = [
        ServiceClass(
            "olap{}".format(index + 1),
            "olap",
            VelocityGoal(round(0.30 + 0.05 * index, 2)),
            importance=1 + index % 3,
        )
        for index in range(7)
    ]
    classes.append(ServiceClass("oltp", "oltp", ResponseTimeGoal(0.25), importance=3))
    counts = {
        c.name: [1 + (period + index) % 2 for period in range(PERIODS)]
        for index, c in enumerate(classes[:-1])
    }
    counts["oltp"] = [1 + period % 3 for period in range(PERIODS)]
    config = default_config(
        seed=23,
        scale=WorkloadScaleConfig(period_seconds=PERIOD_SECONDS, num_periods=PERIODS),
        monitor=MonitorConfig(snapshot_interval=0.5, response_time_window=10.0),
        planner=PlannerConfig(control_interval=1.0, model="learned"),
    )
    return ExperimentSpec(
        controller="qs",
        config=config,
        schedule=PeriodSchedule(PERIOD_SECONDS, counts),
        classes=classes,
    )


def record_decisions() -> dict:
    """Everything the pin compares, as JSON-safe data."""
    result = run_spec(_pin_spec())
    history = result.bundle.controller.planner.history
    return {
        "plans": [record.plan.as_dict() for record in history],
        "scores": [record.solver.objective for record in history],
        "evaluations": [record.solver.evaluations for record in history],
        "series": result.performance_series(),
    }


def test_greedy_learned_decisions_match_the_recorded_fixture():
    with open(FIXTURE) as handle:
        golden = json.load(handle)
    actual = record_decisions()
    # json round-trips floats through repr(), so equality here is bitwise.
    assert len(actual["plans"]) == len(golden["plans"]) == 90
    for index, (got, want) in enumerate(zip(actual["plans"], golden["plans"])):
        assert got == want, "plan of interval {}".format(index)
    assert actual["scores"] == golden["scores"]
    assert actual["evaluations"] == golden["evaluations"]
    assert actual["series"] == golden["series"]


def test_the_pinned_run_takes_the_greedy_learned_path():
    """Guard the pin's premise: greedy moves happen and weights are learned."""
    with open(FIXTURE) as handle:
        golden = json.load(handle)
    assert len({tuple(sorted(plan.items())) for plan in golden["plans"]}) > 20
    # More than the start point plus one full scan: the ascent took moves.
    assert max(golden["evaluations"]) > 1 + 8 * 7
    assert all(score is not None for score in golden["scores"])


if __name__ == "__main__":  # regenerate the fixture
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as handle:
        json.dump(record_decisions(), handle, indent=1, sort_keys=True)
        handle.write("\n")
