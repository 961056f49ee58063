"""The Performance Solver.

"The Scheduling Planner consults with the Performance Solver at regular
intervals to determine an optimal scheduling plan" (Section 2): maximise the
summed utility of predicted per-class achievement, subject to the class cost
limits summing to the system cost limit.

The search space is the allocation simplex discretised at a timeron
granularity.  Utilities are non-decreasing in a class's own limit (more
budget never hurts a class), so the optimum always spends the whole system
limit; we therefore enumerate full allocations only.  For up to three
classes (the paper's experiment) exhaustive enumeration is a few hundred
points; beyond that a greedy unit-reallocation ascent is used.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.modeling import (
    MixSnapshot,
    PaperAnalyticModel,
    PerformanceModel,
)
from repro.core.plan import SchedulingPlan
from repro.core.service_class import ServiceClass
from repro.core.utility import UtilityFunction
from repro.errors import SchedulingError

#: Class counts up to which the solver enumerates the simplex exhaustively.
_EXHAUSTIVE_MAX_CLASSES = 3


class ClassStatus:
    """Solver input for one class: where it is now."""

    __slots__ = ("service_class", "current_limit", "current_value")

    def __init__(
        self,
        service_class: ServiceClass,
        current_limit: float,
        current_value: Optional[float],
    ) -> None:
        self.service_class = service_class
        self.current_limit = current_limit
        # With no measurement yet, assume the class sits exactly at goal:
        # the solver then has no reason to move resources toward or away.
        if current_value is None:
            current_value = service_class.goal.target
        self.current_value = current_value


class PerformanceSolver:
    """Utility-maximising allocator of the system cost limit."""

    def __init__(
        self,
        utility: UtilityFunction,
        system_cost_limit: float = 0.0,
        grid_timerons: float = 1000.0,
        min_class_limit: float = 1000.0,
        oltp_target_margin: float = 1.0,
        model: Optional[PerformanceModel] = None,
    ) -> None:
        if grid_timerons <= 0:
            raise SchedulingError("grid_timerons must be positive")
        if min_class_limit < 0:
            raise SchedulingError("min_class_limit must be non-negative")
        if system_cost_limit <= 0:
            raise SchedulingError("system_cost_limit must be positive")
        if not 0 < oltp_target_margin <= 1:
            raise SchedulingError("oltp_target_margin must be in (0, 1]")
        self.model: PerformanceModel = (
            model if model is not None else PaperAnalyticModel()
        )
        self.utility = utility
        self.system_cost_limit = system_cost_limit
        self.grid = grid_timerons
        self.min_class_limit = min_class_limit
        self.oltp_target_margin = oltp_target_margin
        self._solve_calls = 0
        self._evaluations = 0
        self._last_score: Optional[float] = None
        self._last_evaluations = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def solve_calls(self) -> int:
        """Number of plans produced."""
        return self._solve_calls

    @property
    def evaluations(self) -> int:
        """Candidate allocations ranked across all solves."""
        return self._evaluations

    @property
    def last_score(self) -> Optional[float]:
        """Objective score of the most recent solve's chosen allocation.

        None before the first solve, and when every candidate scored NaN
        (the fallback allocation was used unscored).
        """
        return self._last_score

    @property
    def last_evaluations(self) -> int:
        """Candidate allocations ranked by the most recent solve."""
        return self._last_evaluations

    @property
    def cache_hits(self) -> int:
        # No solution cache exists; perf/measure.py is the only reader.
        return 0

    def set_system_cost_limit(self, limit: float) -> None:
        """Retarget the solver to a new global budget.

        The sharded control plane's interval rebalancing re-splits the
        global limit across shard solvers through this.
        """
        if limit <= 0:
            raise SchedulingError("system_cost_limit must be positive")
        self.system_cost_limit = limit

    def register_instruments(self, registry: "MetricsRegistry") -> None:  # noqa: F821
        """Publish the solver's search counters into a registry."""
        registry.counter(
            "solver_solve_calls_total",
            description="Plans produced by the Performance Solver",
            callback=lambda: self._solve_calls,
        )
        registry.counter(
            "solver_evaluations_total",
            description="Candidate allocations evaluated across all solves",
            callback=lambda: self._evaluations,
        )
        registry.gauge(
            "solver_last_score",
            description="Objective score of the most recent solve",
            callback=lambda: self._last_score if self._last_score is not None else 0.0,
        )

    # ------------------------------------------------------------------
    # Prediction and objective
    # ------------------------------------------------------------------
    def predict_value(
        self,
        status: ClassStatus,
        new_limit: float,
        mix: Optional[MixSnapshot] = None,
    ) -> float:
        """Predicted metric value for a class under a candidate limit."""
        return self.model.predict(status, new_limit, mix)

    def class_utility(
        self,
        status: ClassStatus,
        new_limit: float,
        mix: Optional[MixSnapshot] = None,
    ) -> float:
        """Utility contribution of one class under a candidate limit.

        The OLTP class is scored against ``goal * oltp_target_margin`` so
        the controller aims slightly below its SLO (control headroom);
        reported attainment elsewhere always uses the true goal.
        """
        predicted = self.model.predict(status, new_limit, mix)
        service_class = status.service_class
        if service_class.kind == "oltp" and self.oltp_target_margin < 1.0:
            # Equivalent to achievement against a margin-scaled target
            # (unclamped, like ResponseTimeGoal.achievement).
            target = service_class.goal.target * self.oltp_target_margin
            achievement = 2.0 - predicted / target
        else:
            achievement = service_class.goal.achievement(predicted)
        return self.utility.value(achievement, service_class.importance)

    def objective(
        self,
        statuses: Sequence[ClassStatus],
        limits: Sequence[float],
        mix: Optional[MixSnapshot] = None,
    ) -> float:
        """Total utility of a full candidate allocation.

        Accumulated left to right from ``0.0`` with plain float adds —
        builtin ``sum`` is compensated summation on Python >= 3.12 and
        would score the same allocation differently per interpreter.
        """
        self._evaluations += 1
        score = 0.0
        for status, limit in zip(statuses, limits):
            score += self.class_utility(status, limit, mix)
        return score

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(
        self,
        statuses: Sequence[ClassStatus],
        now: float = 0.0,
        mix: Optional[MixSnapshot] = None,
    ) -> SchedulingPlan:
        """Produce the utility-optimal plan for the given class statuses."""
        if not statuses:
            raise SchedulingError("solver needs at least one class status")
        self._solve_calls += 1
        names = [s.service_class.name for s in statuses]
        if len(set(names)) != len(names):
            raise SchedulingError("duplicate class names in solver input")
        min_units = min_class_units(self.min_class_limit, self.grid)
        total_units = int(self.system_cost_limit // self.grid)
        if total_units < min_units * len(statuses):
            raise SchedulingError(
                "system cost limit {} cannot give {} classes {} timerons each".format(
                    self.system_cost_limit, len(statuses), self.min_class_limit
                )
            )
        evaluations_before = self._evaluations
        if len(statuses) <= _EXHAUSTIVE_MAX_CLASSES:
            best_units, best_score = self._solve_exhaustive(
                statuses, total_units, min_units, mix
            )
        else:
            best_units, best_score = self._solve_greedy(
                statuses, total_units, min_units, mix
            )
        self._last_evaluations = self._evaluations - evaluations_before
        self._last_score = None if math.isnan(best_score) else best_score
        if len(best_units) != len(names):
            raise SchedulingError(
                "solver produced {} limits for {} classes".format(
                    len(best_units), len(names)
                )
            )
        limits = {
            name: units * self.grid for name, units in zip(names, best_units)
        }
        return SchedulingPlan(limits, self.system_cost_limit, created_at=now)

    def _solve_exhaustive(
        self,
        statuses: Sequence[ClassStatus],
        total_units: int,
        min_units: int,
        mix: Optional[MixSnapshot] = None,
    ) -> Tuple[Tuple[int, ...], float]:
        """Score every full allocation of up to three classes; first best wins.

        Each class's utility row (one :meth:`class_utility` call per unit
        count it can hold) is computed once.  Allocations are walked first
        class ascending, then the next, each scored as :meth:`objective`'s
        chain ``0.0 + u0 + u1 + u2`` with the leading partial sum carried
        down: the same additions in the same order.
        """
        count = len(statuses)
        free_units = total_units - min_units * count
        self._evaluations += math.comb(free_units + count - 1, count - 1)
        grid = self.grid
        if count == 1:
            utility = self.class_utility(statuses[0], total_units * grid, mix)
            return (total_units,), 0.0 + utility
        shares = range(free_units + 1)
        rows = [
            [self.class_utility(s, (min_units + share) * grid, mix) for share in shares]
            for s in statuses
        ]
        # Candidate (a, b) scores (heads[a] + middle[b]) + the last class's
        # utility at free_units - a - b units, which is last[a + b].
        heads = [0.0] if count == 2 else [0.0 + utility for utility in rows[0]]
        middle = rows[-2]
        last = rows[-1][::-1]
        best_score = math.nan
        best_at = None
        for a, head in enumerate(heads):
            for b in range(free_units + 1 - a):
                score = head + middle[b] + last[a + b]
                # A NaN score is no candidate; the first one that is sets the bar.
                if score > best_score or (best_score != best_score and score == score):
                    best_score = score
                    best_at = a, b
        if best_at is None:  # every score NaN: an even split keeps the plan complete
            base, spare = divmod(free_units, count)
            return tuple(min_units + base + (i < spare) for i in range(count)), best_score
        a, b = best_at
        best = (b, free_units - b) if count == 2 else (a, b, free_units - a - b)
        return tuple(min_units + share for share in best), best_score

    def _solve_greedy(
        self,
        statuses: Sequence[ClassStatus],
        total_units: int,
        min_units: int,
        mix: Optional[MixSnapshot] = None,
    ) -> Tuple[Tuple[int, ...], float]:
        count = len(statuses)
        # Start proportional to current limits (projected onto the grid).
        current_total = 0.0
        for status in statuses:
            current_total += max(status.current_limit, 1.0)
        units: List[int] = []
        for status in statuses:
            share = max(status.current_limit, 1.0) / current_total
            units.append(max(min_units, int(round(share * total_units))))
        # Repair the sum.
        while sum(units) > total_units:
            index = max(range(count), key=lambda i: units[i])
            if units[index] <= min_units:
                break
            units[index] -= 1
        while sum(units) < total_units:
            index = min(range(count), key=lambda i: units[i])
            units[index] += 1
        # Hill-climb single-unit transfers until no move improves.  A move
        # changes two classes only, so each class's utility at units-1
        # (``less``; None when it cannot donate), units (``here``) and
        # units+1 (``more``) is kept, computed once per solve (``memos``).
        # A candidate is the status-order sum of ``here`` with two entries
        # swapped, as :meth:`objective` adds it, unless :func:`_screen_floor`
        # proves it cannot win the round.
        memos: List[Dict[int, float]] = [{} for _ in statuses]
        indices = range(count)
        here: List[float] = [0.0] * count
        more: List[float] = [0.0] * count
        less: List[Optional[float]] = [None] * count

        def look_up(index: int) -> None:
            held = units[index]
            memo = memos[index]
            for at in (held, held + 1, held - 1):
                if at >= min_units and at not in memo:
                    memo[at] = self.class_utility(statuses[index], at * self.grid, mix)
            here[index] = memo[held]
            more[index] = memo[held + 1]
            less[index] = memo[held - 1] if held > min_units else None

        for index in indices:
            look_up(index)
        self._evaluations += 1
        best_score = 0.0
        for utility in here:
            best_score += utility
        while True:
            donors = [index for index in indices if less[index] is not None]
            self._evaluations += len(donors) * (count - 1)
            take = [up - now for up, now in zip(more, here)]
            floor = _screen_floor(here, more, less, donors, take)
            # ``bar`` is the score a candidate must beat: the standing
            # score, then the round's best so far (first best wins, in
            # donor-major order).  It is NaN only while nothing has scored.
            bar = best_score
            move: Optional[Tuple[int, int]] = None
            trial = list(here)
            for donor in donors:
                give = less[donor] - here[donor]
                trial[donor] = less[donor]
                for recipient in indices:
                    if recipient == donor or give + take[recipient] < floor:
                        continue
                    trial[recipient] = more[recipient]
                    score = 0.0
                    for utility in trial:
                        score += utility
                    trial[recipient] = here[recipient]
                    if score != score:  # NaN: not a candidate
                        continue
                    if score > bar or bar != bar:
                        bar = score
                        move = (donor, recipient)
                trial[donor] = here[donor]
            if move is None:
                break
            donor, recipient = move
            units[donor] -= 1
            units[recipient] += 1
            best_score = bar
            look_up(donor)
            look_up(recipient)
        return tuple(units), best_score


def min_class_units(min_class_limit: float, grid: float) -> int:
    """The fewest grid units whose limit ``units * grid`` is at least
    ``min_class_limit`` (the quotient may round either way)."""
    units = math.ceil(min_class_limit / grid)
    while units * grid < min_class_limit:
        units += 1
    while units > 0 and (units - 1) * grid >= min_class_limit:
        units -= 1
    return units


def _screen_floor(
    here: Sequence[float], more: Sequence[float], less: Sequence[Optional[float]],
    donors: Sequence[int], take: Sequence[float],
) -> float:
    """The gain below which a greedy transfer cannot win its round.

    Transfer c = (donor d, recipient r) has the computed gain ĝ_c =
    fl(fl(less[d] - here[d]) + take[r]), take[r] = fl(more[r] - here[r]),
    and the computed score Ŝ_c (its trial vector summed from 0.0 left to
    right).  With n classes, u = 2**-53, S = Σ(|here| + |more| + |less|),
    H = Σ here, g_c the exact gain and T = ĝ_* the round's best gain:

    * |Ŝ_c - (H + g_c)| ≤ γ(n-1)·S (Higham's bound for recursive
      summation, γ(k) = ku / (1 - ku) ≤ 2ku);
    * |ĝ_c - g_c| ≤ (2u + u²)·S (two subtractions and their sum, d ≠ r);
    * so Ŝ_* - Ŝ_c ≥ (T - ĝ_c) - 2(γ(n-1) + 2u + u²)·S.

    The floor is fl(T - s), s = (n + 1)·2**-50·S_f + 2**-1074, S_f the
    float sum (≥ S/2; the last term covers underflow).  ĝ_c < fl(T - s)
    gives T - ĝ_c > s(1 - u) - u|T|, |T| ≤ (1 + 3u)·S, so Ŝ_* - Ŝ_c ≥
    (3u - (8n + 13)u²)·S > 0 for any n < 2**50: c scores strictly below
    the scored *, so it cannot be the round's first best.  The bound
    assumes no overflow: when S_f is not finite or above 2**1020 the floor
    is -inf and every candidate is scored.
    """
    total = 0.0
    for now, up, down in zip(here, more, less):
        total += abs(now) + abs(up)
        if down is not None:
            total += abs(down)
    if not total <= 2.0 ** 1020:
        return -math.inf
    best_gain = -math.inf
    for donor in donors:
        give = less[donor] - here[donor]
        for recipient, gain in enumerate(take):
            if recipient != donor and give + gain > best_gain:
                best_gain = give + gain
    return best_gain - ((len(here) + 1) * 2.0 ** -50 * total + 5e-324)
