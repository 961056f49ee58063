"""A run imports only what it executes.

Package exports resolve on first use, and the controller table, the model
registry, the planner's allocator choice and the optional run attachments
import a class only when they build it.  Each check runs in a fresh
interpreter: ``sys.modules`` of the test process says nothing, other tests
have long since imported everything.
"""

import pytest

from tests.conftest import run_from_checkout

#: Modules a plain ``qs`` run never executes, so never loads.
NOT_LOADED_BY_A_QS_RUN = [
    "repro.core.detection",
    "repro.core.direct",
    "repro.core.heuristic",
    "repro.core.mpl",
    "repro.core.modeling.learned",
    "repro.core.modeling.training",
    "repro.experiments.calibration",
    "repro.experiments.figures",
    "repro.experiments.model_ablation",
    "repro.experiments.replication",
    "repro.experiments.sensitivity",
    "repro.metrics.report",
    "repro.obs.live.publish",
    "repro.obs.tracer",
    "repro.patroller.policy",
    "repro.workloads.trace",
]

#: A ``qs`` spec at smoke scale: 2 x 20 s, 10 s control interval.
SPEC = """
import sys
from repro.config import PlannerConfig, WorkloadScaleConfig, default_config
from repro.experiments.runner import ExperimentSpec, run_spec
from repro.workloads.schedule import constant_schedule

def spec(controller="qs", planner=None, **fields):
    config = default_config(
        seed=3,
        scale=WorkloadScaleConfig(period_seconds=20.0, num_periods=2),
        planner=PlannerConfig(control_interval=10.0, **(planner or {})),
    )
    schedule = constant_schedule(20.0, 2, {"class1": 2, "class2": 2, "class3": 6})
    return ExperimentSpec(controller=controller, config=config, schedule=schedule, **fields)

def loaded(names):
    return [name for name in names if name in sys.modules]
"""


def run_python(code):
    done = run_from_checkout(["-c", code])
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_repro_loads_nothing_else():
    run_python(
        "import sys\n"
        "import repro\n"
        "assert 'numpy' not in sys.modules\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('repro'))\n"
        "assert loaded == ['repro'], loaded\n"
        "from repro.experiments.runner import run_spec\n"
        "assert repro.run_spec is run_spec\n"
        "assert 'run_spec' in vars(repro)  # cached: the next access is a plain read\n"
    )


def test_a_qs_run_loads_none_of_what_it_does_not_execute():
    run_python(
        SPEC
        + "result = run_spec(spec())\n"
        "assert result.goal_attainment()\n"
        "assert loaded({0!r}) == [], loaded({0!r})\n".format(NOT_LOADED_BY_A_QS_RUN)
    )


@pytest.mark.parametrize(
    "arguments, module",
    [
        ("controller='mpl'", "repro.core.mpl"),
        ("controller='direct'", "repro.core.direct"),
        ("controller='qs_detect'", "repro.core.detection"),
        ("planner={'model': 'learned'}", "repro.core.modeling.learned"),
        ("planner={'allocator': 'deficit'}", "repro.core.heuristic"),
        ("tracing=True", "repro.obs.tracer"),
        ("invariants='strict'", "repro.validation.harness"),
    ],
)
def test_a_spec_loads_the_module_it_runs(arguments, module):
    run_python(
        SPEC
        + "assert loaded([{0!r}]) == []\n"
        "result = run_spec(spec({1}))\n"
        "assert result.goal_attainment()\n"
        "assert loaded([{0!r}]) == [{0!r}]\n".format(module, arguments)
    )


def test_dir_lists_every_export():
    import repro.core

    assert set(repro.core.__all__) <= set(dir(repro.core))


def test_an_unknown_name_raises_attribute_error_naming_the_package():
    import repro.metrics

    with pytest.raises(AttributeError, match="'repro.metrics' has no attribute 'NoSuchThing'"):
        repro.metrics.NoSuchThing
