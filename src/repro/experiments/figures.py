"""One entry point per paper figure.

Each ``figureN`` function regenerates the data behind the paper's Figure N
and returns it as plain Python structures; the benchmark harness formats and
prints them.  Figure 1 is the architecture diagram (nothing to measure);
Figures 4-7 all run the reconstructed Figure 3 workload under a different
controller.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SimulationConfig, default_config
from repro.experiments.calibration import measure_oltp_response_time
from repro.experiments.runner import ExperimentResult, ExperimentSpec, run_spec
from repro.workloads.schedule import paper_schedule

#: Digit-reconstructed Figure 2 client mixes: (OLTP clients, OLAP clients).
FIGURE2_PAIRS: Tuple[Tuple[int, int], ...] = ((30, 4), (30, 8), (30, 2), (50, 8))

#: Default OLAP cost-limit sweep for Figure 2 (timerons).
FIGURE2_LIMITS: Tuple[float, ...] = (5_000, 10_000, 15_000, 20_000, 25_000, 30_000)


def figure2(
    config: Optional[SimulationConfig] = None,
    olap_limits: Sequence[float] = FIGURE2_LIMITS,
    pairs: Sequence[Tuple[int, int]] = FIGURE2_PAIRS,
    **kwargs,
) -> Dict[Tuple[int, int], List[Tuple[float, Optional[float]]]]:
    """OLTP average response time vs total OLAP cost limit, per client mix."""
    results: Dict[Tuple[int, int], List[Tuple[float, Optional[float]]]] = {}
    for oltp_clients, olap_clients in pairs:
        series: List[Tuple[float, Optional[float]]] = []
        for limit in olap_limits:
            rt = measure_oltp_response_time(
                olap_limit=float(limit),
                oltp_clients=oltp_clients,
                olap_clients=olap_clients,
                config=config,
                **kwargs,
            )
            series.append((float(limit), rt))
        results[(oltp_clients, olap_clients)] = series
    return results


def figure3(period_seconds: float = 120.0) -> Dict[str, Tuple[int, ...]]:
    """The reconstructed 18-period client-count schedule."""
    schedule = paper_schedule(period_seconds)
    return dict(schedule.counts)


def _controlled_run(
    controller: str,
    config: Optional[SimulationConfig],
    **kwargs,
) -> ExperimentResult:
    return run_spec(
        ExperimentSpec(
            controller=controller, config=config or default_config(), **kwargs
        )
    )


def figure4(config: Optional[SimulationConfig] = None, **kwargs) -> ExperimentResult:
    """No class control on the paper workload (baseline)."""
    return _controlled_run("none", config, **kwargs)


def figure5(
    config: Optional[SimulationConfig] = None,
    priority_control: bool = True,
    **kwargs,
) -> ExperimentResult:
    """DB2 QP static control (priority on by default) on the paper workload."""
    controller = "qp" if priority_control else "qp_nopriority"
    return _controlled_run(controller, config, **kwargs)


def figure6(config: Optional[SimulationConfig] = None, **kwargs) -> ExperimentResult:
    """Query Scheduler control on the paper workload."""
    return _controlled_run("qs", config, **kwargs)


def figure7(
    result: Optional[ExperimentResult] = None,
    config: Optional[SimulationConfig] = None,
    **kwargs,
) -> Dict[str, List[Optional[float]]]:
    """Per-period mean class cost limits under Query Scheduler control.

    Figure 7 is the plan trace of the same run as Figure 6; pass that
    result to avoid re-running, or let this function run one.
    """
    if result is None:
        result = figure6(config, **kwargs)
    if result.controller_name != "qs":
        raise ValueError("figure7 needs a Query Scheduler run")
    return {
        service_class.name: result.collector.plan_period_means(service_class.name)
        for service_class in result.classes
    }
