"""Extension: direct in-engine control (the paper's future work).

Section 5: "The most effective way to manage performance of OLTP workload
is to directly control it.  One approach is to implement the control
mechanism inside the DBMS itself."

The indirect scheme cannot act on OLTP traffic at all — it bypasses Query
Patroller — so it cannot differentiate between two OLTP classes: a
latency-critical payments stream and a low-importance batch-write storm
hammer the same CPUs as equals.  The in-engine gate (zero interception
overhead) can throttle the storm.  This bench runs that scenario with no
control versus direct control and shows the payments SLO being rescued at
the storm's expense.
"""

from __future__ import annotations

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.core.service_class import ResponseTimeGoal, ServiceClass, VelocityGoal
from repro.experiments.runner import build_bundle, make_controller
from repro.workloads.schedule import PeriodSchedule
from repro.workloads.spec import QueryTemplate, WorkloadMix
from repro.workloads.tpch import tpch_mix


def _scenario_config():
    return default_config(
        scale=WorkloadScaleConfig(period_seconds=120.0, num_periods=4),
        monitor=MonitorConfig(snapshot_interval=10.0, response_time_window=60.0),
        planner=PlannerConfig(control_interval=60.0),
    )


def _classes():
    return [
        ServiceClass("reports", "olap", VelocityGoal(0.5), importance=2),
        ServiceClass("payments", "oltp", ResponseTimeGoal(0.20), importance=3),
        ServiceClass("batchwrites", "oltp", ResponseTimeGoal(3.0), importance=1),
    ]


def _mixes():
    payments = WorkloadMix(
        "payments",
        [QueryTemplate("payment", "oltp", cpu_demand=0.012, io_demand=0.004,
                       variability=0.2)],
    )
    batch = WorkloadMix(
        "batchwrites",
        [QueryTemplate("bulk_write", "oltp", cpu_demand=0.030, io_demand=0.012,
                       variability=0.2)],
    )
    return {"reports": tpch_mix(), "payments": payments, "batchwrites": batch}


def _schedule():
    # Periods 2 and 4 are the batch-write storm.
    return PeriodSchedule(
        120.0,
        {
            "reports": (3, 3, 3, 3),
            "payments": (8, 8, 8, 8),
            "batchwrites": (4, 40, 4, 40),
        },
    )


def _run(controller_name):
    bundle = build_bundle(
        config=_scenario_config(),
        schedule=_schedule(),
        classes=_classes(),
        mixes=_mixes(),
    )
    controller = make_controller(bundle, controller_name)
    controller.start()
    bundle.manager.start()
    bundle.run()
    return bundle


def test_direct_control_rescues_latency_critical_oltp(report):
    baseline, direct = _run("none"), _run("direct")
    report("")
    report("=== Extension: direct in-engine control vs no control ===")
    report("payments avg rt per period (goal 0.20s):")
    base_rt = baseline.collector.metric_series("payments", "response_time")
    direct_rt = direct.collector.metric_series("payments", "response_time")
    report("{:>10} | {:>8} | {:>8}".format("period", "none", "direct"))
    report("-" * 34)
    for period in range(4):
        report("{:>10} | {:>8.3f} | {:>8.3f}".format(
            period + 1,
            base_rt[period] if base_rt[period] is not None else float("nan"),
            direct_rt[period] if direct_rt[period] is not None else float("nan"),
        ))
    storm = (1, 3)  # 0-based storm periods

    # Without any control the storm breaks the payments SLO...
    for period in storm:
        assert base_rt[period] is not None and base_rt[period] > 0.20
    # ...with direct in-engine control payments stay at (or near) goal.
    for period in storm:
        assert direct_rt[period] is not None
        assert direct_rt[period] < base_rt[period]
        assert direct_rt[period] <= 0.20 * 1.3

    # The rescue comes from throttling the storm, not magic: the batch
    # class is queued at the gate during storm periods.
    batch_rt = direct.collector.metric_series("batchwrites", "response_time")
    base_batch_rt = baseline.collector.metric_series("batchwrites", "response_time")
    assert batch_rt[1] is not None and base_batch_rt[1] is not None
    assert batch_rt[1] > base_batch_rt[1]
    report("batchwrites storm-period rt: none={:.3f}s direct={:.3f}s "
           "(intentionally sacrificed)".format(base_batch_rt[1], batch_rt[1]))

    # And the gate added no interception overhead in calm periods.
    assert direct_rt[0] is not None and direct_rt[0] < 0.20
