"""Scheduling plans.

"A scheduling plan is ... expressed as a set of class cost limits, which
determine the number of queries of each class that can execute at any one
time. ... The sum of all class cost limits must not exceed the system cost
limit" (Section 2).  :class:`SchedulingPlan` is that immutable set of limits
plus the invariant checks.
"""

from __future__ import annotations

from typing import Dict, ItemsView, Iterator, Mapping, Optional, Tuple

from repro.errors import SchedulingError

#: Slack tolerated when checking the sum-of-limits invariant (float safety).
_SUM_TOLERANCE = 1e-6


class PlanLimits(Mapping[str, float]):
    """A read-only view of one plan's class cost limits — no copy.

    What a per-interval record keeps of the installed plan: it compares
    equal to the limits as a dict, pickles with its plan, and renders as a
    dict only when exported.
    """

    __slots__ = ("_limits",)

    def __init__(self, limits: Dict[str, float]) -> None:
        self._limits = limits

    def __getitem__(self, class_name: str) -> float:
        return self._limits[class_name]

    def __contains__(self, class_name: object) -> bool:
        return class_name in self._limits

    def __iter__(self) -> Iterator[str]:
        return iter(self._limits)

    def __len__(self) -> int:
        return len(self._limits)

    def items(self) -> ItemsView[str, float]:
        """(class, limit) pairs."""
        return self._limits.items()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "PlanLimits({!r})".format(self._limits)


class SchedulingPlan:
    """Immutable mapping of service-class name to class cost limit."""

    __slots__ = ("_limits", "limits", "system_cost_limit", "created_at")

    def __init__(
        self,
        limits: Mapping[str, float],
        system_cost_limit: float,
        created_at: float = 0.0,
    ) -> None:
        if system_cost_limit <= 0:
            raise SchedulingError("system cost limit must be positive")
        if not limits:
            raise SchedulingError("a scheduling plan needs at least one class")
        for name, limit in limits.items():
            if limit < 0:
                raise SchedulingError(
                    "class {!r} has negative cost limit {}".format(name, limit)
                )
        total = sum(limits.values())
        if total > system_cost_limit * (1 + _SUM_TOLERANCE):
            raise SchedulingError(
                "class cost limits sum to {:.1f} > system cost limit {:.1f}".format(
                    total, system_cost_limit
                )
            )
        self._limits: Dict[str, float] = dict(limits)
        #: The limits as one read-only view (:class:`PlanLimits`).
        self.limits = PlanLimits(self._limits)
        self.system_cost_limit = float(system_cost_limit)
        self.created_at = float(created_at)

    # ------------------------------------------------------------------
    # Mapping-ish interface
    # ------------------------------------------------------------------
    def limit(self, class_name: str) -> float:
        """The cost limit of a class; raises SchedulingError if unknown."""
        try:
            return self._limits[class_name]
        except KeyError:
            raise SchedulingError(
                "plan has no cost limit for class {!r}".format(class_name)
            )

    def __contains__(self, class_name: str) -> bool:
        return class_name in self._limits

    def __iter__(self) -> Iterator[str]:
        return iter(self._limits)

    def __len__(self) -> int:
        return len(self._limits)

    def items(self) -> Iterator[Tuple[str, float]]:
        """(class, limit) pairs."""
        return iter(self._limits.items())

    def as_dict(self) -> Dict[str, float]:
        """A mutable copy of the limits."""
        return dict(self._limits)

    @property
    def total_allocated(self) -> float:
        """Sum of all class cost limits."""
        return sum(self._limits.values())

    @property
    def slack(self) -> float:
        """Unallocated timerons under the system cost limit."""
        return self.system_cost_limit - self.total_allocated

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def replace(
        self, created_at: Optional[float] = None, **limits: float
    ) -> "SchedulingPlan":
        """A new plan with some class limits replaced."""
        new_limits = dict(self._limits)
        for name, limit in limits.items():
            if name not in new_limits:
                raise SchedulingError("plan has no class {!r} to replace".format(name))
            new_limits[name] = limit
        return SchedulingPlan(
            new_limits,
            self.system_cost_limit,
            self.created_at if created_at is None else created_at,
        )

    @staticmethod
    def even_split(
        class_names,
        system_cost_limit: float,
        created_at: float = 0.0,
    ) -> "SchedulingPlan":
        """An initial plan dividing the system limit equally."""
        names = list(class_names)
        if not names:
            raise SchedulingError("even_split needs at least one class")
        share = system_cost_limit / len(names)
        return SchedulingPlan(
            {name: share for name in names}, system_cost_limit, created_at
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SchedulingPlan):
            return NotImplemented
        return (
            self._limits == other._limits
            and self.system_cost_limit == other.system_cost_limit
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(
            "{}={:.0f}".format(name, limit) for name, limit in sorted(self._limits.items())
        )
        return "SchedulingPlan({}, system={:.0f})".format(body, self.system_cost_limit)
