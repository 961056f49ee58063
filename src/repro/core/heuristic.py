"""A deficit-weighted heuristic allocator (solver ablation).

The paper frames plan construction as utility optimization.  A natural
question is how much the optimization buys over the obvious heuristic:
give each class a share of the system cost limit proportional to
``importance x deficit``, where deficit measures how far the class is below
its goal.  :class:`DeficitAllocator` implements that heuristic behind the
same interface as :class:`~repro.core.solver.PerformanceSolver` (a
``solve(statuses, now)`` method), so the planner can run either; the
ablation bench compares them.

Known weaknesses (by design — they are what the solver fixes):

* it reacts to *measured* deficits only, with no model of what a limit
  change will do, so it overshoots on classes whose metric responds
  nonlinearly;
* a satisfied class keeps a floor share rather than being stripped to
  need, so violators recover more slowly.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.plan import SchedulingPlan
from repro.core.solver import ClassStatus
from repro.errors import SchedulingError

#: Deficit assigned to a class exactly at its goal, so satisfied classes
#: keep a small share instead of collapsing to the minimum.
_FLOOR_DEFICIT = 0.05


class DeficitAllocator:
    """Importance-x-deficit proportional allocation of the system limit."""

    def __init__(
        self,
        system_cost_limit: float,
        grid_timerons: float = 1000.0,
        min_class_limit: float = 1000.0,
    ) -> None:
        if system_cost_limit <= 0:
            raise SchedulingError("system_cost_limit must be positive")
        if grid_timerons <= 0:
            raise SchedulingError("grid_timerons must be positive")
        if min_class_limit < 0:
            raise SchedulingError("min_class_limit must be non-negative")
        self.system_cost_limit = system_cost_limit
        self.grid = grid_timerons
        self.min_class_limit = min_class_limit
        self._solve_calls = 0

    @property
    def solve_calls(self) -> int:
        """Number of plans produced."""
        return self._solve_calls

    def set_system_cost_limit(self, limit: float) -> None:
        """Retarget the allocator to a new global budget.

        Stateless between solves, so this is a plain
        guarded assignment — kept as a method so both solver kinds share
        the interface the sharded rebalancer calls.
        """
        if limit <= 0:
            raise SchedulingError("system_cost_limit must be positive")
        self.system_cost_limit = limit

    def register_instruments(self, registry: "MetricsRegistry") -> None:  # noqa: F821
        """Publish the allocator's counters into a registry."""
        registry.counter(
            "solver_solve_calls_total",
            description="Plans produced by the deficit allocator",
            callback=lambda: self._solve_calls,
        )

    @staticmethod
    def deficit(status: ClassStatus) -> float:
        """How far below goal the class currently is (floored when met)."""
        achievement = status.service_class.goal.achievement(status.current_value)
        return max(_FLOOR_DEFICIT, 1.0 - achievement)

    def solve(
        self, statuses: Sequence[ClassStatus], now: float = 0.0, mix=None
    ) -> SchedulingPlan:
        """Allocate proportionally to importance x deficit.

        ``mix`` is accepted (and ignored) so the planner can hand every
        allocator the same mix snapshot that model-driven solvers use.
        """
        if not statuses:
            raise SchedulingError("allocator needs at least one class status")
        self._solve_calls += 1
        minimum = max(self.min_class_limit, self.grid)
        budget = self.system_cost_limit - minimum * len(statuses)
        if budget < 0:
            raise SchedulingError(
                "system cost limit cannot give every class its minimum"
            )
        weights = [
            status.service_class.importance * self.deficit(status)
            for status in statuses
        ]
        total_weight = sum(weights)
        limits = {}
        for status, weight in zip(statuses, weights):
            share = budget * weight / total_weight if total_weight > 0 else 0.0
            quantised = minimum + self.grid * round(share / self.grid)
            limits[status.service_class.name] = quantised
        # Quantisation can overshoot the budget; shave the largest class.
        total = sum(limits.values())
        while total > self.system_cost_limit + 1e-9:
            largest = max(limits, key=lambda name: limits[name])
            if limits[largest] <= minimum:
                break
            limits[largest] -= self.grid
            total -= self.grid
        return SchedulingPlan(limits, self.system_cost_limit, created_at=now)
