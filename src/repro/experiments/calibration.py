"""Calibration experiments.

Two pre-experiments from the papers' methodology:

* :func:`sweep_system_cost_limit` — Section 2: the system cost limit "is
  determined experimentally by plotting the curve of the throughput versus
  the system cost limit to ensure the system running in a healthy state or
  under-saturated".
* :func:`fit_oltp_slope` — Section 3.2 / Figure 2: measure OLTP average
  response time against the total OLAP cost limit and fit the linear slope
  ``s`` used to seed the OLTP performance model.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.config import SimulationConfig, default_config
from repro.core.service_class import (
    ResponseTimeGoal,
    ServiceClass,
    VelocityGoal,
)
from repro.experiments.runner import ExperimentSpec, run_spec
from repro.workloads.schedule import constant_schedule


def _steady_state_mean(
    series: Sequence[Optional[float]], warmup_periods: int
) -> Optional[float]:
    values = [v for v in series[warmup_periods:] if v is not None]
    if not values:
        return None
    return sum(values) / len(values)


def _calibration_classes() -> List[ServiceClass]:
    return [
        ServiceClass("olap", "olap", VelocityGoal(0.5), importance=1),
        ServiceClass("class3", "oltp", ResponseTimeGoal(0.25), importance=3),
    ]


def sweep_system_cost_limit(
    limits: Sequence[float],
    config: Optional[SimulationConfig] = None,
    olap_clients: int = 32,
    period_seconds: float = 120.0,
    num_periods: int = 3,
    warmup_periods: int = 1,
) -> List[Tuple[float, float]]:
    """OLAP throughput (queries/s) against the system cost limit.

    A heavy OLAP-only closed-loop workload is driven through the
    no-class-control policy at each candidate limit.  Throughput rises with
    the limit while the server is under-saturated and flattens/declines past
    the thrashing knee; the caller picks the limit at the knee, exactly as
    the paper's authors did.
    """
    base = (config or default_config()).validate()
    results: List[Tuple[float, float]] = []
    classes = [ServiceClass("olap", "olap", VelocityGoal(0.5), importance=1)]
    schedule = constant_schedule(period_seconds, num_periods, {"olap": olap_clients})
    for limit in limits:
        run_config = base.with_updates(system_cost_limit=float(limit))
        result = run_spec(
            ExperimentSpec(
                controller="none",
                config=run_config,
                schedule=schedule,
                classes=classes,
            )
        )
        throughput = _steady_state_mean(
            result.collector.metric_series("olap", "throughput"), warmup_periods
        )
        results.append((float(limit), throughput if throughput is not None else 0.0))
    return results


def pick_knee_limit(curve: Sequence[Tuple[float, float]], tolerance: float = 0.03) -> float:
    """The smallest limit achieving within ``tolerance`` of peak throughput."""
    if not curve:
        raise ValueError("empty calibration curve")
    peak = max(t for _, t in curve)
    for limit, throughput in sorted(curve):
        if throughput >= peak * (1.0 - tolerance):
            return limit
    return sorted(curve)[-1][0]


def measure_oltp_response_time(
    olap_limit: float,
    oltp_clients: int,
    olap_clients: int,
    config: Optional[SimulationConfig] = None,
    period_seconds: float = 120.0,
    num_periods: int = 3,
    warmup_periods: int = 1,
) -> Optional[float]:
    """Steady-state OLTP mean response time at a fixed total OLAP cost limit.

    The OLAP classes run behind a static cost limit (no class control); the
    OLTP class bypasses interception, exactly as in the paper's Figure 2
    measurement.
    """
    base = (config or default_config()).validate()
    classes = _calibration_classes()
    schedule = constant_schedule(
        period_seconds,
        num_periods,
        {"olap": olap_clients, "class3": oltp_clients},
    )
    run_config = base.with_updates(system_cost_limit=float(olap_limit))
    result = run_spec(
        ExperimentSpec(
            controller="none",
            config=run_config,
            schedule=schedule,
            classes=classes,
        )
    )
    return _steady_state_mean(
        result.collector.metric_series("class3", "response_time"), warmup_periods
    )


def fit_oltp_slope(
    olap_limits: Sequence[float],
    oltp_clients: int = 30,
    olap_clients: int = 8,
    config: Optional[SimulationConfig] = None,
    **kwargs,
) -> Tuple[float, List[Tuple[float, float]]]:
    """Figure 2 regression: slope of OLTP response time vs OLAP cost limit.

    Returns ``(slope_seconds_per_timeron, [(limit, response_time), ...])``.
    Note the returned slope is against the *OLAP* limit; the planner's model
    uses the OLTP reservation ``C_oltp = system - C_olap``, so its prior is
    the negation of this value.
    """
    points: List[Tuple[float, float]] = []
    for limit in olap_limits:
        rt = measure_oltp_response_time(
            olap_limit=float(limit),
            oltp_clients=oltp_clients,
            olap_clients=olap_clients,
            config=config,
            **kwargs,
        )
        if rt is not None:
            points.append((float(limit), rt))
    if len(points) < 2:
        raise ValueError("need at least two measurable points to fit a slope")
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return slope, points
