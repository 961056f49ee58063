"""Utility functions over goal achievement.

"We use utility functions to capture the goals and importance of a workload
and then view the development of a scheduling plan as an optimization
problem involving the utility functions" (Section 2).  The paper's observed
semantics (Section 4.3): importance matters *only while a class violates its
goal* — a satisfied class, however important, releases resources to classes
in violation.

Every utility maps an *achievement ratio* ``r`` (1.0 exactly at goal, see
:mod:`repro.core.service_class`) and an importance ``w`` to a scalar.  The
shared contract that produces the paper's behaviour:

* below goal, utility grows with slope proportional to importance — the
  solver fixes violations in importance order;
* above goal, extra achievement earns only a small importance-independent
  bonus (capped), so surplus resources are spread rather than hoarded.

Three families are provided; the piecewise-linear one is the default, the
others exist for the utility-family ablation bench.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.errors import ConfigurationError

#: Achievement beyond which extra performance earns nothing at all.
_SURPLUS_CAP = 2.0

#: Base of the exponential importance weighting (see below).
IMPORTANCE_BASE = 4.0

#: :class:`PiecewiseLinearUtility`'s slope above goal.
SURPLUS_SLOPE = 0.05

#: :class:`SigmoidUtility`'s steepness ``k`` below goal and its
#: importance-free surplus slope above goal.
SIGMOID_STEEPNESS = 4.0
SIGMOID_EPSILON = 0.01

#: :class:`StepUtility`'s linear term below goal and surplus slope above it.
STEP_RAMP = 0.10


def effective_weight(importance: float, base: float) -> float:
    """Below-goal weight of a class: ``base ** (importance - 1)``.

    The paper ranks *violations* by business importance: a violating
    important class must win resources from less important classes even
    when those are also below goal.  Linear weights cannot guarantee that —
    a class's marginal utility per timeron also depends on how efficiently
    timerons move its own metric — so importance enters exponentially.
    ``base = 1`` degrades to plain linear weighting.
    """
    if base <= 1.0:
        return importance
    return base ** (importance - 1.0)


class UtilityFunction(ABC):
    """Maps (achievement ratio, importance) to a utility scalar."""

    @abstractmethod
    def value(self, achievement: float, importance: float) -> float:
        """Utility of a class at ``achievement`` with ``importance``."""

    def __call__(self, achievement: float, importance: float) -> float:
        return self.value(achievement, importance)


class PiecewiseLinearUtility(UtilityFunction):
    """Default family: importance-sloped below goal, flat-ish above.

    ``u(r, w) = W * r``                          for r < 1
    ``u(r, w) = W + surplus_slope * (min(r, cap) - 1)``  for r >= 1

    with ``W = effective_weight(importance, importance_base)``.
    """

    def __init__(
        self,
        surplus_slope: float = SURPLUS_SLOPE,
        importance_base: float = IMPORTANCE_BASE,
    ) -> None:
        if surplus_slope < 0:
            raise ConfigurationError("surplus_slope must be non-negative")
        if importance_base < 1:
            raise ConfigurationError("importance_base must be >= 1")
        self.surplus_slope = surplus_slope
        self.importance_base = importance_base

    def value(self, achievement: float, importance: float) -> float:
        # Deliberately unclamped below goal: a deeply violating class must
        # keep a slope, or the solver loses its gradient toward rescue.
        r = achievement
        weight = effective_weight(importance, self.importance_base)
        if r < 1.0:
            return weight * r
        return weight + self.surplus_slope * (min(r, _SURPLUS_CAP) - 1.0)


class SigmoidUtility(UtilityFunction):
    """Smooth family: importance-weighted sigmoid *below* goal.

    ``u = W * sigmoid(k * (min(r, 1) - 1))`` — smooth diminishing urgency as
    a violation closes — plus an importance-free ramp ``epsilon * (r - 1)``
    above goal (capped), preserving the shared contract that importance
    stops mattering once the goal is met (``k`` :data:`SIGMOID_STEEPNESS`,
    ``epsilon`` :data:`SIGMOID_EPSILON`).
    """

    def __init__(self, importance_base: float = IMPORTANCE_BASE) -> None:
        if importance_base < 1:
            raise ConfigurationError("importance_base must be >= 1")
        self.importance_base = importance_base

    def value(self, achievement: float, importance: float) -> float:
        r = achievement
        weight = effective_weight(importance, self.importance_base)
        below = min(r, 1.0)
        # Clamp the exponent so absurd violations cannot overflow exp().
        exponent = max(-60.0, -SIGMOID_STEEPNESS * (below - 1.0))
        sigmoid = 1.0 / (1.0 + math.exp(exponent))
        surplus = SIGMOID_EPSILON * (min(r, _SURPLUS_CAP) - 1.0) if r > 1.0 else 0.0
        return weight * sigmoid + surplus

class StepUtility(UtilityFunction):
    """All-or-nothing family: the full importance on meeting the goal.

    A small linear term below goal keeps the solver's search surface from
    being totally flat (otherwise every failing allocation looks alike);
    its slope is :data:`STEP_RAMP`.
    """

    def __init__(self, importance_base: float = IMPORTANCE_BASE) -> None:
        if importance_base < 1:
            raise ConfigurationError("importance_base must be >= 1")
        self.importance_base = importance_base

    def value(self, achievement: float, importance: float) -> float:
        r = achievement
        weight = effective_weight(importance, self.importance_base)
        if r >= 1.0:
            return weight + STEP_RAMP * (min(r, _SURPLUS_CAP) - 1.0)
        return weight * STEP_RAMP * r


def make_utility(name: str) -> UtilityFunction:
    """Factory keyed by the :class:`~repro.config.PlannerConfig` name."""
    if name == "piecewise":
        return PiecewiseLinearUtility()
    if name == "sigmoid":
        return SigmoidUtility()
    if name == "step":
        return StepUtility()
    raise ConfigurationError("unknown utility family {!r}".format(name))
