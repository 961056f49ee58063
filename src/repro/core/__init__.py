"""The Query Scheduler — the paper's primary contribution.

This subpackage implements the workload adaptation framework of Section 2
and its mixed-workload extension of Section 3: service classes with
per-class goals and business importance, the Monitor / Classifier /
Dispatcher / Scheduling Planner / Performance Solver pipeline of Figure 1,
the OLAP velocity and OLTP linear performance models, utility-function
objectives, and the table of controllers an experiment can run.
"""

from repro.core.classifier import Classifier
from repro.core.controllers import CONTROLLER_NAMES, CONTROLLERS
from repro.core.detection import (
    ShiftEvent,
    WorkloadCharacterization,
    WorkloadDetector,
)
from repro.core.direct import DirectScheduler
from repro.core.heuristic import DeficitAllocator
from repro.core.dispatcher import Dispatcher
from repro.core.modeling import (
    LearnedPerformanceModel,
    OLAPVelocityModel,
    OLTPResponseTimeModel,
    OracleLastValueModel,
    PaperAnalyticModel,
    PerformanceModel,
    make_model,
)
from repro.core.monitor import ClassMeasurement, Monitor
from repro.core.mpl import MPLController
from repro.core.plan import SchedulingPlan
from repro.core.planner import SchedulingPlanner
from repro.core.scheduler import QueryScheduler
from repro.core.service_class import (
    PerformanceGoal,
    ResponseTimeGoal,
    ServiceClass,
    VelocityGoal,
)
from repro.core.solver import PerformanceSolver
from repro.core.utility import (
    PiecewiseLinearUtility,
    SigmoidUtility,
    StepUtility,
    UtilityFunction,
    make_utility,
)

__all__ = [
    "QueryScheduler",
    "ServiceClass",
    "PerformanceGoal",
    "VelocityGoal",
    "ResponseTimeGoal",
    "SchedulingPlan",
    "Classifier",
    "Monitor",
    "ClassMeasurement",
    "Dispatcher",
    "SchedulingPlanner",
    "PerformanceSolver",
    "OLAPVelocityModel",
    "OLTPResponseTimeModel",
    "PaperAnalyticModel",
    "LearnedPerformanceModel",
    "OracleLastValueModel",
    "PerformanceModel",
    "make_model",
    "UtilityFunction",
    "PiecewiseLinearUtility",
    "SigmoidUtility",
    "StepUtility",
    "make_utility",
    "CONTROLLERS",
    "CONTROLLER_NAMES",
    "MPLController",
    "DirectScheduler",
    "WorkloadDetector",
    "WorkloadCharacterization",
    "ShiftEvent",
    "DeficitAllocator",
]
