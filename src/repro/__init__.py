"""repro — reproduction of *Adapting Mixed Workloads to Meet SLOs in
Autonomic DBMSs* (Niu, Martin, Powley, Bird, Horman; ICDE 2007).

The package implements the paper's Query Scheduler framework — cost-based
workload adaptation with indirect OLTP control — on a fully simulated
DB2-like substrate.  See DESIGN.md for the system inventory and
EXPERIMENTS.md for paper-vs-measured results.

Quick start::

    from repro import ExperimentSpec, run_spec

    result = run_spec(ExperimentSpec(controller="qs"))
    print(result.goal_attainment())
"""

from repro.config import (
    PAPER_CLASSES,
    SimulationConfig,
    default_config,
)
from repro.core import (
    DirectScheduler,
    MPLController,
    QueryScheduler,
    ResponseTimeGoal,
    SchedulingPlan,
    ServiceClass,
    VelocityGoal,
    WorkloadDetector,
)
from repro.core.service_class import paper_classes
from repro.errors import (
    ConfigurationError,
    PatrollerError,
    ReproError,
    ScenarioError,
    SchedulingError,
    SimulationError,
    WorkloadError,
)
from repro.experiments import (
    ExperimentSpec,
    build_bundle,
    compare,
    fit_oltp_slope,
    replicate,
    run_spec,
    sweep,
    sweep_system_cost_limit,
)
from repro.scenarios import (
    ScenarioSpec,
    find_scenario,
    library_names,
    load_scenario,
    loads_scenario,
    to_experiment_spec,
)
from repro.workloads import paper_schedule, tpcc_mix, tpch_mix

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "SimulationConfig",
    "default_config",
    "PAPER_CLASSES",
    "paper_classes",
    "QueryScheduler",
    "MPLController",
    "DirectScheduler",
    "WorkloadDetector",
    "ServiceClass",
    "VelocityGoal",
    "ResponseTimeGoal",
    "SchedulingPlan",
    "run_spec",
    "ExperimentSpec",
    "build_bundle",
    "sweep_system_cost_limit",
    "fit_oltp_slope",
    "replicate",
    "compare",
    "sweep",
    "ScenarioSpec",
    "load_scenario",
    "loads_scenario",
    "find_scenario",
    "library_names",
    "to_experiment_spec",
    "paper_schedule",
    "tpch_mix",
    "tpcc_mix",
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "SchedulingError",
    "ScenarioError",
    "WorkloadError",
    "PatrollerError",
]
