"""The one table of workload controllers an experiment can run.

A *controller* is any object with a ``name``, ``start()`` (hook into the
deployment, begin any loop) and ``describe()`` (one line for reports).
One that re-plans through a :class:`~repro.core.planner.SchedulingPlanner`
also exposes ``planner`` / ``dispatcher`` / ``solver`` / ``registry`` /
``telemetry``; that is how telemetry export, the invariant harness, fault
injection and the live hub find their subjects — none of them asks which
controller it is looking at.

:data:`CONTROLLERS` maps each experiment-level name to a builder taking the
assembled bundle (``sim``, ``engine``, ``patroller``, ``classes``,
``config``):

``"none"``          -- Section 4.2.1, "no control was exerted over the
                       workload except for the system cost limit": OLAP is
                       intercepted, one FIFO system-wide limit (Figure 4)
``"qp"``            -- Section 4.2.2, DB2 QP's own static strategy: cost
                       groups (top 5% / next 15% / rest) with fixed slots,
                       the system cost limit as a static OLAP limit, Class 2
                       above Class 1 (Figure 5)
``"qp_nopriority"`` -- the same with priority control off
``"qs"``            -- the Query Scheduler (Figures 6-7)
``"qs_detect"``     -- Query Scheduler + explicit workload detection
``"mpl"``           -- MPL admission control extension ([5]); a count gate
                       and AIMD loop of its own, no planner
``"direct"``        -- in-engine direct control extension (Section 5)

A builder imports its controller's class, so a run loads only the
controller it runs.

QP "is turned off" for the OLTP class under every patroller-based entry.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, Tuple

if TYPE_CHECKING:
    from repro.core.direct import DirectScheduler
    from repro.core.mpl import MPLController
    from repro.core.scheduler import QueryScheduler
    from repro.patroller.policy import QPStaticPolicy


def _static_policy(bundle, name: str, description: str, **policy) -> QPStaticPolicy:
    from repro.patroller.policy import QPStaticPolicy

    bundle.patroller.intercept_only(
        c.name for c in bundle.classes if c.directly_controlled
    )
    return QPStaticPolicy(
        bundle.patroller, name=name, description=description, **policy
    )


def _no_control(bundle) -> QPStaticPolicy:
    limit = bundle.config.system_cost_limit
    return _static_policy(
        bundle,
        "no_control",
        "No class control (system cost limit {:.0f} timerons only)".format(limit),
        global_cost_limit=limit,
    )


def _qp_static(bundle, priority_control: bool) -> QPStaticPolicy:
    from repro.patroller.policy import standard_groups

    limit = bundle.config.system_cost_limit
    # Submitter priority mirrors business importance among OLAP classes
    # (the paper sets Class 2's priority above Class 1's).
    priorities = {
        c.name: int(c.importance) for c in bundle.classes if c.directly_controlled
    }
    return _static_policy(
        bundle,
        "qp_priority",
        "DB2 QP static control (groups 5%/15%/80%, priorities {}, "
        "static OLAP limit {:.0f})".format("on" if priority_control else "off", limit),
        groups=standard_groups(bundle.historical_olap_costs()),
        priorities=priorities if priority_control else {},
        global_cost_limit=limit,
    )


def _query_scheduler(bundle, detection: bool) -> QueryScheduler:
    from repro.core.scheduler import QueryScheduler

    scheduler = QueryScheduler(
        bundle.sim, bundle.engine, bundle.patroller, bundle.classes, bundle.config
    )
    if detection:
        scheduler.enable_detection()
    return scheduler


def _mpl(bundle) -> MPLController:
    from repro.core.mpl import MPLController

    return MPLController(
        bundle.sim,
        bundle.patroller,
        bundle.engine,
        bundle.classes,
        control_interval=bundle.config.planner.control_interval,
    )


def _direct(bundle) -> DirectScheduler:
    from repro.core.direct import DirectScheduler

    return DirectScheduler(
        bundle.sim, bundle.engine, bundle.patroller, bundle.classes, bundle.config
    )


#: name -> (builder, whether what it builds exposes a ``planner``).
CONTROLLERS: Dict[str, Tuple[Callable[..., object], bool]] = {
    "none": (_no_control, False),
    "qp": (partial(_qp_static, priority_control=True), False),
    "qp_nopriority": (partial(_qp_static, priority_control=False), False),
    "qs": (partial(_query_scheduler, detection=False), True),
    "qs_detect": (partial(_query_scheduler, detection=True), True),
    "mpl": (_mpl, False),
    "direct": (_direct, True),
}

#: Every controller name, in table order.
CONTROLLER_NAMES = tuple(CONTROLLERS)

#: The names whose controller records a ``ControlIntervalRecord`` per
#: interval (what ``repro trace`` / ``spans`` / ``check`` can run).
PLANNER_CONTROLLER_NAMES = tuple(
    name for name, (_, planned) in CONTROLLERS.items() if planned
)
