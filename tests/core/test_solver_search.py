"""Tests for the solver's memoized search.

The optimized solver must be a pure speedup: for any inputs, the plan it
produces (and the score it reports) must match a reference solver that
re-evaluates the full objective for every candidate allocation.
"""

import math
import random

import pytest

from repro.core.modeling import OLTPResponseTimeModel, PaperAnalyticModel
from repro.core.service_class import (
    ResponseTimeGoal,
    ServiceClass,
    VelocityGoal,
)
from repro.core.solver import (
    ClassStatus,
    PerformanceSolver,
    _compositions,
)
from repro.core.utility import PiecewiseLinearUtility
from tests.conftest import make_mix, trained_model


def make_solver(num_classes=3, system_per_class=10_000.0):
    return PerformanceSolver(
        utility=PiecewiseLinearUtility(),
        model=PaperAnalyticModel(
            oltp_model=OLTPResponseTimeModel(prior_slope=-4.2e-6)
        ),
        system_cost_limit=system_per_class * num_classes,
        grid_timerons=1_000.0,
        min_class_limit=1_000.0,
    )


def random_statuses(rng, num_classes):
    """Randomized ClassStatus inputs: OLAP classes plus one OLTP class."""
    statuses = []
    for index in range(num_classes):
        if index == num_classes - 1:
            service_class = ServiceClass(
                "oltp", "oltp", ResponseTimeGoal(rng.uniform(0.1, 0.5)),
                importance=rng.randint(1, 3),
            )
            value = rng.uniform(0.05, 0.6)
        else:
            service_class = ServiceClass(
                "olap{}".format(index), "olap",
                VelocityGoal(rng.uniform(0.2, 0.8)),
                importance=rng.randint(1, 3),
            )
            value = rng.uniform(0.05, 0.95)
        statuses.append(
            ClassStatus(
                service_class,
                current_limit=rng.uniform(2_000.0, 20_000.0),
                current_value=value,
            )
        )
    return statuses


def reference_exhaustive(solver, statuses):
    """Brute-force best allocation using the unmemoized full objective."""
    count = len(statuses)
    min_units = max(0, int(round(solver.min_class_limit / solver.grid)))
    total_units = int(solver.system_cost_limit // solver.grid)
    free = total_units - min_units * count
    best_units, best_score = None, float("nan")
    for combo in _compositions(free, count):
        units = tuple(min_units + c for c in combo)
        limits = [u * solver.grid for u in units]
        score = solver.objective(statuses, limits)
        if math.isnan(score):
            continue
        if math.isnan(best_score) or score > best_score:
            best_units, best_score = units, score
    return best_units, best_score


def reference_greedy(solver, statuses, total_units, min_units, mix=None):
    """The single-unit-transfer ascent, rescanning every move with the
    unmemoized full objective — what ``_solve_greedy`` must reproduce
    bit for bit (units, score, tie-breaks, NaN skipping)."""
    count = len(statuses)
    grid = solver.grid
    current_total = 0.0
    for status in statuses:
        current_total += max(status.current_limit, 1.0)
    units = []
    for status in statuses:
        share = max(status.current_limit, 1.0) / current_total
        units.append(max(min_units, int(round(share * total_units))))
    while sum(units) > total_units:
        index = max(range(count), key=lambda i: units[i])
        if units[index] <= min_units:
            break
        units[index] -= 1
    while sum(units) < total_units:
        index = min(range(count), key=lambda i: units[i])
        units[index] += 1

    def score_of(candidate):
        return solver.objective(statuses, [u * grid for u in candidate], mix)

    best_score = score_of(units)
    improved = True
    while improved:
        improved = False
        best_move = None
        for donor in range(count):
            if units[donor] <= min_units:
                continue
            for recipient in range(count):
                if recipient == donor:
                    continue
                candidate = list(units)
                candidate[donor] -= 1
                candidate[recipient] += 1
                score = score_of(candidate)
                if math.isnan(score):
                    continue
                improves = math.isnan(best_score) or score > best_score
                if improves and (best_move is None or score > best_move[0]):
                    best_move = (score, donor, recipient)
        if best_move is not None:
            best_score, donor, recipient = best_move
            units[donor] -= 1
            units[recipient] += 1
            improved = True
    return tuple(units), best_score


def same_float(left, right):
    """Bitwise float equality, with NaN equal to NaN."""
    return (math.isnan(left) and math.isnan(right)) or (
        left == right and math.copysign(1.0, left) == math.copysign(1.0, right)
    )


def greedy_case(rng, num_classes, flavour):
    """Statuses and solver geometry for one conformance case.

    ``flavour`` picks what the case stresses: ``"random"`` inputs;
    ``"pinned"`` — some classes hold (far) less than ``min_class_limit``,
    so they start pinned at the minimum and cannot donate; ``"over"`` /
    ``"under"`` — equal current limits whose rounded shares sum above /
    below the budget, so the matching sum-repair loop runs with every
    unit count tied; ``"twins"`` — identical classes, so whole groups of
    transfers tie on score; ``"nan"`` — some, or all, measurements NaN.
    """
    statuses = random_statuses(rng, num_classes)
    total_units = 10 * num_classes
    if flavour == "pinned":
        for status in rng.sample(statuses, num_classes // 2):
            status.current_limit = rng.choice([0.0, 0.5, 40.0])
    elif flavour in ("over", "under"):
        # Every share is total / count: a fraction above one half rounds
        # all of them up (the sum overshoots), one below rounds them down.
        spare = num_classes // 2 + 1 if flavour == "over" else (num_classes - 1) // 2
        total_units = 7 * num_classes + spare
        for status in statuses:
            status.current_limit = 5_000.0
    elif flavour == "twins":
        twin = statuses[0]
        statuses = [
            ClassStatus(
                ServiceClass(
                    "twin{}".format(index),
                    twin.service_class.kind,
                    twin.service_class.goal,
                    twin.service_class.importance,
                ),
                current_limit=5_000.0,
                current_value=twin.current_value,
            )
            for index in range(num_classes)
        ]
    elif flavour == "nan":
        poisoned = statuses if rng.random() < 0.4 else rng.sample(statuses, 2)
        for status in poisoned:
            status.current_value = float("nan")
    return statuses, total_units


class TestMemoizedSearchConformance:
    @pytest.mark.parametrize(
        "flavour", ["random", "pinned", "over", "under", "twins", "nan"]
    )
    def test_greedy_matches_rescanning_reference(self, flavour):
        rng = random.Random("greedy-" + flavour)
        repaired = 0
        for _ in range(12):
            num_classes = rng.randint(4, 10)
            statuses, total_units = greedy_case(rng, num_classes, flavour)
            optimized = make_solver(num_classes)
            reference = make_solver(num_classes)
            units, score = optimized._solve_greedy(statuses, total_units, 1)
            ref_units, ref_score = reference_greedy(
                reference, statuses, total_units, 1
            )
            assert units == ref_units
            assert same_float(score, ref_score)
            assert optimized.evaluations == reference.evaluations
            assert sum(units) == total_units and min(units) >= 1
            shares = num_classes * int(round(total_units / num_classes))
            repaired += (shares > total_units) - (shares < total_units)
        if flavour == "over":
            assert repaired == 12  # the shrink loop ran every time
        if flavour == "under":
            assert repaired == -12  # the grow loop ran every time

    def test_greedy_all_nan_keeps_the_repaired_start(self):
        """Nothing scores, so nothing moves: equal limits stay the even
        split and the solve reports no score."""

        class NaNUtility:
            def value(self, achievement, importance):
                return float("nan")

        statuses = [
            ClassStatus(
                ServiceClass("c{}".format(i), "olap", VelocityGoal(0.5), 1),
                current_limit=5_000.0,
                current_value=0.4,
            )
            for i in range(6)
        ]
        solver = PerformanceSolver(utility=NaNUtility(), system_cost_limit=60_000.0)
        units, score = solver._solve_greedy(statuses, 60, 1)
        assert units == (10,) * 6 and math.isnan(score)
        assert solver.evaluations == 1 + 6 * 5
        solver.solve(statuses)
        assert solver.last_score is None

    def test_greedy_matches_reference_under_the_learned_model(self):
        """Mix-aware predictions (trained residual weights, a live mix)
        flow through the same per-round utilities."""
        rng = random.Random(11)
        for _ in range(6):
            num_classes = rng.randint(4, 8)
            statuses = random_statuses(rng, num_classes)
            mix = make_mix(statuses, rng)
            solvers = [
                PerformanceSolver(
                    utility=PiecewiseLinearUtility(),
                    model=trained_model(statuses, seed=5),
                    system_cost_limit=10_000.0 * num_classes,
                )
                for _ in range(2)
            ]
            total_units = 10 * num_classes
            units, score = solvers[0]._solve_greedy(statuses, total_units, 1, mix)
            ref_units, ref_score = reference_greedy(
                solvers[1], statuses, total_units, 1, mix
            )
            assert units == ref_units and same_float(score, ref_score)

    def test_objective_adds_left_to_right_on_every_python(self):
        """Builtin ``sum`` is compensated on Python >= 3.12 (this list
        would total 1.0); decisions must not depend on the interpreter."""
        solver = make_solver(3)
        statuses = random_statuses(random.Random(1), 3)
        utilities = iter([1e16, 1.0, -1e16])
        solver.class_utility = lambda status, limit, mix=None: next(utilities)
        sequential = ((0.0 + 1e16) + 1.0) + -1e16
        assert solver.objective(statuses, [1.0, 2.0, 3.0]) == sequential == 0.0
        utilities = iter([1e16, 1.0, -1e16])
        memos = [{} for _ in statuses]
        assert solver._memo_objective(statuses, memos, (1, 2, 3)) == sequential

    def test_exhaustive_matches_unmemoized_reference_randomized(self):
        rng = random.Random(20260808)
        for _ in range(25):
            num_classes = rng.randint(1, 3)
            statuses = random_statuses(rng, num_classes)
            optimized = make_solver(num_classes)
            reference = make_solver(num_classes)
            plan = optimized.solve(statuses)
            ref_units, ref_score = reference_exhaustive(reference, statuses)
            names = [s.service_class.name for s in statuses]
            expected = {
                name: units * optimized.grid
                for name, units in zip(names, ref_units)
            }
            assert plan.as_dict() == expected
            assert optimized.last_score == pytest.approx(ref_score, abs=0.0)

    def test_memo_does_not_change_evaluation_count(self):
        # Every candidate allocation is still counted as one evaluation;
        # the memo only avoids recomputing per-class utilities.
        rng = random.Random(3)
        statuses = random_statuses(rng, 3)
        solver = make_solver(3)
        solver.solve(statuses)
        free = int(solver.system_cost_limit // solver.grid) - 3
        candidates = len(list(_compositions(free, 3)))
        assert solver.last_evaluations == candidates

