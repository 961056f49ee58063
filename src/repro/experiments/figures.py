"""The paper figures that are not one run.

``figure2`` and ``figure3`` regenerate the data behind the paper's Figures
2 and 3 and return it as plain Python structures; the benchmark harness
formats and prints them.  Figure 1 is the architecture diagram (nothing to
measure).  Figures 4-7 are each one run of the reconstructed Figure 3
workload (``run_spec(ExperimentSpec(controller=...))`` with ``none``,
``qp`` and ``qs``; Figure 7 is the Query Scheduler run's
``collector.plan_period_means``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SimulationConfig
from repro.experiments.calibration import measure_oltp_response_time
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
