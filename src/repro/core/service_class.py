"""Service classes, performance goals, and business importance.

Section 4: "Class 1 and Class 2 were OLAP classes with importance levels of
1 and 2, and query velocity goals of 0.4 and 0.6, respectively. ... Class 3
was the OLTP class with the highest importance level of 3, and was assigned
average response time goal 0.25 seconds."

A goal knows two things: whether a measured value satisfies it, and the
*achievement ratio* — a normalized ≥-is-better number that equals 1.0 exactly
at the goal.  Utility functions consume achievement ratios so that velocity
goals (higher is better) and response-time goals (lower is better) live on
one scale.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Optional

from repro.config import PAPER_CLASSES
from repro.errors import ConfigurationError

#: Floor applied to measured/predicted response times when computing ratios,
#: so a momentarily idle OLTP class cannot produce an infinite achievement.
_MIN_RESPONSE_TIME = 1e-3


class PerformanceGoal(ABC):
    """A per-class service level objective."""

    #: The paper's metric name for reporting.
    metric: str = ""

    @property
    @abstractmethod
    def target(self) -> float:
        """The goal value on the metric's own scale."""

    @abstractmethod
    def achievement(self, value: float) -> float:
        """Normalized achievement ratio: 1.0 at goal, >1 when exceeded."""

    def satisfied(self, value: float) -> bool:
        """Whether the measured value meets the goal."""
        return self.achievement(value) >= 1.0


@dataclass(frozen=True)
class VelocityGoal(PerformanceGoal):
    """Query-velocity goal for OLAP classes (higher is better).

    Velocity is ``execution_time / response_time`` in (0, 1]; "a larger
    value means a shorter waiting time compared with execution time and
    hence better performance" (Section 3.1).
    """

    velocity: float
    metric: str = field(default="velocity", init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.velocity <= 1.0:
            raise ConfigurationError(
                "velocity goal must be in (0, 1], got {}".format(self.velocity)
            )

    @property
    def target(self) -> float:
        return self.velocity

    def achievement(self, value: float) -> float:
        return max(0.0, value) / self.velocity


@dataclass(frozen=True)
class ResponseTimeGoal(PerformanceGoal):
    """Average response-time goal for OLTP classes (lower is better).

    The achievement ratio is the *linear* deficit form ``2 - t/goal``:
    exactly 1.0 at goal, and — because the paper's OLTP performance model is
    linear in the class cost limit (Section 3.2) — linear in allocated
    timerons, so a deep violation stays exactly as urgent per timeron as a
    shallow one.  It goes negative for response times beyond twice the
    goal on purpose: clamping at zero would flatten the solver's gradient
    exactly when a class needs rescuing most.  (The naive ``goal/t`` ratio
    is hyperbolic: it makes badly-violating classes look progressively
    cheaper to ignore, inverting the paper's importance semantics.)
    """

    seconds: float
    metric: str = field(default="response_time", init=False)

    def __post_init__(self) -> None:
        if self.seconds <= 0:
            raise ConfigurationError(
                "response-time goal must be positive, got {}".format(self.seconds)
            )

    @property
    def target(self) -> float:
        return self.seconds

    def achievement(self, value: float) -> float:
        return 2.0 - max(value, _MIN_RESPONSE_TIME) / self.seconds


@dataclass(frozen=True)
class ServiceClass:
    """A workload class with a goal and a business importance level.

    "The importance level of a class is in effect only when the class
    violates its performance goals and is not synonymous with priority"
    (Section 4.3) — that semantics lives in the utility functions; the class
    itself is pure description.

    Parameters
    ----------
    name:
        Unique class name.
    kind:
        ``"olap"`` (directly controlled, velocity metric) or ``"oltp"``
        (indirectly controlled, response-time metric).
    goal:
        The class's SLO.
    importance:
        Business importance (higher = more important when violating).
    """

    name: str
    kind: str
    goal: PerformanceGoal
    importance: float

    def __post_init__(self) -> None:
        if self.kind not in ("olap", "oltp"):
            raise ConfigurationError(
                "service class {!r}: unknown kind {!r}".format(self.name, self.kind)
            )
        if self.importance <= 0:
            raise ConfigurationError(
                "service class {!r}: importance must be positive".format(self.name)
            )
        if self.kind == "oltp" and not isinstance(self.goal, ResponseTimeGoal):
            raise ConfigurationError(
                "OLTP class {!r} needs a ResponseTimeGoal".format(self.name)
            )
        if self.kind == "olap" and not isinstance(self.goal, VelocityGoal):
            raise ConfigurationError(
                "OLAP class {!r} needs a VelocityGoal".format(self.name)
            )

    @property
    def directly_controlled(self) -> bool:
        """OLAP classes are gated by the dispatcher; OLTP is not."""
        return self.kind == "olap"


def paper_classes() -> "tuple[ServiceClass, ServiceClass, ServiceClass]":
    """The three service classes of the paper's Section 4 experiments, built
    from :data:`repro.config.PAPER_CLASSES`."""
    return tuple(
        ServiceClass(
            name,
            kind,
            VelocityGoal(goal) if kind == "olap" else ResponseTimeGoal(goal),
            importance=importance,
        )
        for name, kind, goal, importance in PAPER_CLASSES
    )


def find_class(classes, name: str) -> Optional[ServiceClass]:
    """Locate a class by name in an iterable of classes."""
    for service_class in classes:
        if service_class.name == name:
            return service_class
    return None
