"""The Query Scheduler — the paper's primary contribution.

This subpackage implements the workload adaptation framework of Section 2
and its mixed-workload extension of Section 3: service classes with
per-class goals and business importance, the Monitor / Dispatcher /
Scheduling Planner / Performance Solver pipeline of Figure 1 (the
dispatcher's per-class queue lookup does the Classifier's job),
the OLAP velocity and OLTP linear performance models, utility-function
objectives, and the table of controllers an experiment can run.
"""

from repro import lazy_exports

_EXPORTS = {
    "QueryScheduler": "repro.core.scheduler",
    "ServiceClass": "repro.core.service_class",
    "PerformanceGoal": "repro.core.service_class",
    "VelocityGoal": "repro.core.service_class",
    "ResponseTimeGoal": "repro.core.service_class",
    "SchedulingPlan": "repro.core.plan",
    "Monitor": "repro.core.monitor",
    "ClassMeasurement": "repro.core.monitor",
    "Dispatcher": "repro.core.dispatcher",
    "SchedulingPlanner": "repro.core.planner",
    "PerformanceSolver": "repro.core.solver",
    "OLAPVelocityModel": "repro.core.modeling.analytic",
    "OLTPResponseTimeModel": "repro.core.modeling.analytic",
    "PaperAnalyticModel": "repro.core.modeling.analytic",
    "LearnedPerformanceModel": "repro.core.modeling.learned",
    "OracleLastValueModel": "repro.core.modeling.learned",
    "PerformanceModel": "repro.core.modeling.protocol",
    "make_model": "repro.core.modeling.registry",
    "UtilityFunction": "repro.core.utility",
    "PiecewiseLinearUtility": "repro.core.utility",
    "SigmoidUtility": "repro.core.utility",
    "StepUtility": "repro.core.utility",
    "make_utility": "repro.core.utility",
    "CONTROLLERS": "repro.core.controllers",
    "CONTROLLER_NAMES": "repro.core.controllers",
    "MPLController": "repro.core.mpl",
    "DirectScheduler": "repro.core.direct",
    "WorkloadDetector": "repro.core.detection",
    "ShiftEvent": "repro.core.detection",
    "DeficitAllocator": "repro.core.heuristic",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
