"""Server overload (thrashing) model.

Section 2 of the paper: the system cost limit is "determined experimentally
by plotting the curve of the throughput versus the system cost limit to
ensure the system running in a healthy state or under-saturated".  That
experiment only makes sense if pushing total concurrent cost past some knee
*hurts* throughput — on real hardware via buffer-pool churn, lock escalation
and memory pressure.  We model the aggregate effect as a single efficiency
multiplier applied to both resource pools:

    efficiency(cost) = 1                                   cost <= knee
                       1 / (1 + beta * (cost - knee)/knee) cost >  knee

where ``cost`` is the summed *true* timeron cost of all executing queries,
``knee`` is ``overload.knee_cost`` and ``beta`` is :data:`BETA`.
Below the knee the server behaves like a plain processor-sharing system
(hence the linear Figure 2 regime); above it, every additional admitted
timeron slows everyone down, producing the throughput knee of the
calibration experiment.
"""

from __future__ import annotations

from typing import List

from repro.config import OverloadConfig
from repro.sim.resources import ProcessorSharingResource

#: How fast efficiency falls past the knee: at ``(1 + x) * knee`` it is
#: ``1 / (1 + BETA * x)``.
BETA = 1.5


class OverloadModel:
    """Tracks total in-flight cost and keeps pool efficiencies in sync."""

    def __init__(
        self,
        config: OverloadConfig,
        resources: List[ProcessorSharingResource],
    ) -> None:
        config.validate()
        self._resources = list(resources)
        self._total_cost = 0.0
        self._peak_cost = 0.0
        self._knee = float(config.knee_cost)
        self._last_efficiency = 1.0

    @property
    def total_cost(self) -> float:
        """Summed true timeron cost of all currently executing queries."""
        return self._total_cost

    @property
    def peak_cost(self) -> float:
        """Largest total cost observed so far."""
        return self._peak_cost

    @property
    def efficiency(self) -> float:
        """Current efficiency multiplier."""
        knee = self._knee
        if self._total_cost <= knee:
            return 1.0
        excess = (self._total_cost - knee) / knee
        return 1.0 / (1.0 + BETA * excess)

    def admit(self, cost: float) -> None:
        """Account for a query entering execution."""
        total = self._total_cost + cost
        self._total_cost = total
        if total > self._peak_cost:
            self._peak_cost = total
        # Fast path: below the knee with efficiency already at 1.0 there
        # is nothing to propagate (the common healthy-state regime).
        if total <= self._knee and self._last_efficiency == 1.0:
            return
        self._apply()

    def retire(self, cost: float) -> None:
        """Account for a query finishing execution."""
        total = self._total_cost - cost
        if total < 0:
            # Float drift only; never let efficiency exceed 1 via negatives.
            total = 0.0
        self._total_cost = total
        if total <= self._knee and self._last_efficiency == 1.0:
            return
        self._apply()

    def _apply(self) -> None:
        efficiency = self.efficiency
        self._last_efficiency = efficiency
        for resource in self._resources:
            resource.set_efficiency(efficiency)
