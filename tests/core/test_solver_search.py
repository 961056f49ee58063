"""Tests for the solver's searches.

The solver's searches must be a pure speedup: for any inputs, the plan it
produces, the score it reports and the candidates it counts must match the
references in ``tests/core/reference_solver.py``, which re-evaluate the
full objective for every candidate allocation.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.modeling import OLTPResponseTimeModel, PaperAnalyticModel
from repro.core.service_class import (
    ResponseTimeGoal,
    ServiceClass,
    VelocityGoal,
    paper_classes,
)
from repro.core.solver import ClassStatus, PerformanceSolver
from repro.core.utility import PiecewiseLinearUtility, make_utility
from tests.conftest import make_mix, trained_model
from tests.core.reference_solver import (
    _compositions,
    reference_exhaustive,
    reference_greedy,
    same_float,
)


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
        # The exhaustive search's one candidate when nothing is free: its
        # carried partial sums are the same three additions.
        by_class = dict(zip(statuses, [1e16, 1.0, -1e16]))
        solver.class_utility = lambda status, limit, mix=None: by_class[status]
        units, score = solver._solve_exhaustive(statuses, 3, 1)
        assert units == (1, 1, 1) and same_float(score, sequential)

    def test_exhaustive_matches_unmemoized_reference_randomized(self):
        rng = random.Random(20260808)
        for _ in range(25):
            num_classes = rng.randint(1, 3)
            statuses = random_statuses(rng, num_classes)
            optimized = make_solver(num_classes)
            reference = make_solver(num_classes)
            plan = optimized.solve(statuses)
            ref_units, ref_score = reference_exhaustive(
                reference, statuses, 10 * num_classes, 1
            )
            names = [s.service_class.name for s in statuses]
            expected = {
                name: units * optimized.grid
                for name, units in zip(names, ref_units)
            }
            assert plan.as_dict() == expected
            assert same_float(optimized.last_score, ref_score)
            assert optimized.evaluations == reference.evaluations

    def test_exhaustive_beats_the_greedy_ascent_on_a_step_utility(self):
        """Why up to three classes keep the exhaustive search: on a step
        utility the ascent stops at a local optimum.  Paper classes at
        10k/10k/10k measuring (0.1, 0.3, 0.4 s): the ascent's single-unit
        transfers climb to (1k, 1k, 28k), a local optimum scoring 1.1463,
        while the best allocation is (1k, 20k, 9k) at 4.6156."""

        def step_solver():
            return PerformanceSolver(
                utility=make_utility("step"),
                model=PaperAnalyticModel(
                    oltp_model=OLTPResponseTimeModel(prior_slope=-4.2e-6)
                ),
                system_cost_limit=30_000.0,
            )

        statuses = [
            ClassStatus(service_class, 10_000.0, value)
            for service_class, value in zip(paper_classes(), (0.1, 0.3, 0.4))
        ]
        solver = step_solver()
        plan = solver.solve(statuses)
        assert plan.as_dict() == {
            "class1": 1_000.0, "class2": 20_000.0, "class3": 9_000.0
        }
        assert solver.last_score == pytest.approx(4.6156, abs=1e-4)
        units, score = reference_exhaustive(step_solver(), statuses, 30, 1)
        assert units == (1, 20, 9) and same_float(score, solver.last_score)
        units, score = reference_greedy(step_solver(), statuses, 30, 1)
        assert units == (1, 1, 28)
        assert score == pytest.approx(1.1463, abs=1e-4)

    def test_memo_does_not_change_evaluation_count(self):
        # Every candidate allocation is still counted as one evaluation;
        # the utility rows only avoid recomputing per-class utilities.
        rng = random.Random(3)
        statuses = random_statuses(rng, 3)
        solver = make_solver(3)
        solver.solve(statuses)
        free = int(solver.system_cost_limit // solver.grid) - 3
        candidates = len(list(_compositions(free, 3)))
        assert solver.last_evaluations == candidates



# ---------------------------------------------------------------------------
# Both searches against their references over generated utilities
# ---------------------------------------------------------------------------

#: Per-class scales: magnitudes from 1e-300 to 1e300, side by side in one
#: solve, so one class's moves can vanish in another's rounding.
SCALES = st.sampled_from([1e-300, 1e-30, 1.0, 3.0, 1e16, 1e30, 1e300, -1.0, -1e16])
SPECIALS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])


def generated_search(data, counts, free_units):
    """Statuses, geometry and two solvers sharing one stub ``class_utility``.

    A class's utility at ``units`` is drawn the first time it is asked:
    mostly ``scale * units`` a few ulps off (near-ties), sometimes a signed
    zero, an infinity, NaN or any float.
    """
    count = data.draw(counts, label="classes")
    min_units = data.draw(st.integers(0, 2), label="min_units")
    total_units = min_units * count + data.draw(free_units, label="free_units")
    statuses, scales = [], {}
    for index in range(count):
        name = "c{}".format(index)
        scales[name] = data.draw(SCALES, label=name)
        statuses.append(
            ClassStatus(
                ServiceClass(name, "olap", VelocityGoal(0.5), 1),
                # 0.0 and 0.5 start a class pinned at its minimum.
                current_limit=data.draw(st.sampled_from([0.0, 0.5, 1.0, 3.0, 7.0])),
                current_value=0.5,
            )
        )
    drawn = {}

    def class_utility(status, limit, mix=None):
        key = (status.service_class.name, limit)
        if key not in drawn:
            # Rare enough that most greedy rounds see only finite values
            # (any other value turns the bound screen off for the round).
            kind = data.draw(st.integers(0, 29))
            if kind == 0:
                drawn[key] = data.draw(SPECIALS)
            elif kind == 1:
                drawn[key] = data.draw(st.floats())
            else:
                ulps = data.draw(st.integers(0, 3))
                drawn[key] = scales[key[0]] * limit * (1.0 + ulps * 2.0 ** -52)
        return drawn[key]

    solvers = []
    for _ in range(2):
        # The searches take units as arguments; a unit is one timeron.
        solver = PerformanceSolver(
            utility=PiecewiseLinearUtility(), system_cost_limit=1.0, grid_timerons=1.0
        )
        solver.class_utility = class_utility
        solvers.append(solver)
    return statuses, total_units, min_units, solvers


def assert_same_search(found, expected, solver, reference):
    assert found[0] == expected[0]
    assert same_float(found[1], expected[1])
    assert solver.evaluations == reference.evaluations


class TestSearchesOverGeneratedUtilities:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_exhaustive_matches_reference(self, data):
        statuses, total_units, min_units, (solver, reference) = generated_search(
            data, st.integers(1, 3), st.integers(0, 8)
        )
        assert_same_search(
            solver._solve_exhaustive(statuses, total_units, min_units),
            reference_exhaustive(reference, statuses, total_units, min_units),
            solver,
            reference,
        )

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_greedy_matches_reference(self, data):
        statuses, total_units, min_units, (solver, reference) = generated_search(
            data, st.integers(4, 12), st.integers(0, 12)
        )
        assert_same_search(
            solver._solve_greedy(statuses, total_units, min_units),
            reference_greedy(reference, statuses, total_units, min_units),
            solver,
            reference,
        )
