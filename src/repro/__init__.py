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

Every package's exports resolve on first use (:func:`lazy_exports`):
``import repro`` loads nothing else, and a run loads what it executes.
"""

import importlib
import sys


def lazy_exports(package, exports):
    """The PEP 562 ``(__getattr__, __dir__)`` of a package whose public
    names live in its modules.

    ``exports`` maps each name to the module defining it.  A name is
    imported on first access and then cached in the package's globals, so
    a second access is a plain attribute read; any other name raises
    :class:`AttributeError`.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                "module {!r} has no attribute {!r}".format(package, name)
            ) from None
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__():
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__


_EXPORTS = {
    "SimulationConfig": "repro.config",
    "default_config": "repro.config",
    "PAPER_CLASSES": "repro.config",
    "paper_classes": "repro.core.service_class",
    "QueryScheduler": "repro.core.scheduler",
    "MPLController": "repro.core.mpl",
    "DirectScheduler": "repro.core.direct",
    "WorkloadDetector": "repro.core.detection",
    "ServiceClass": "repro.core.service_class",
    "VelocityGoal": "repro.core.service_class",
    "ResponseTimeGoal": "repro.core.service_class",
    "SchedulingPlan": "repro.core.plan",
    "run_spec": "repro.experiments.runner",
    "ExperimentSpec": "repro.experiments.runner",
    "build_bundle": "repro.experiments.runner",
    "sweep_system_cost_limit": "repro.experiments.calibration",
    "fit_oltp_slope": "repro.experiments.calibration",
    "replicate": "repro.experiments.replication",
    "compare": "repro.experiments.replication",
    "sweep": "repro.experiments.sensitivity",
    "ScenarioSpec": "repro.scenarios.spec",
    "load_scenario": "repro.scenarios.loader",
    "loads_scenario": "repro.scenarios.loader",
    "find_scenario": "repro.scenarios.loader",
    "library_names": "repro.scenarios.loader",
    "to_experiment_spec": "repro.scenarios.spec",
    "paper_schedule": "repro.workloads.schedule",
    "tpch_mix": "repro.workloads.tpch",
    "tpcc_mix": "repro.workloads.tpcc",
    "ReproError": "repro.errors",
    "ConfigurationError": "repro.errors",
    "SimulationError": "repro.errors",
    "SchedulingError": "repro.errors",
    "ScenarioError": "repro.errors",
    "WorkloadError": "repro.errors",
    "PatrollerError": "repro.errors",
}

__version__ = "1.0.0"

__all__ = ["__version__", *_EXPORTS]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
