"""Tests for the solver's memoized search and solution cache.

The optimized solver must be a pure speedup: for any inputs, the plan it
produces (and the score it reports) must match a reference solver that
re-evaluates the full objective for every candidate allocation, and a
repeat solve on unchanged inputs must be a cache hit that returns the
same plan without searching.
"""

import math
import random

import pytest

from repro.core.modeling import OLTPResponseTimeModel
from repro.core.service_class import (
    ResponseTimeGoal,
    ServiceClass,
    VelocityGoal,
)
from repro.core.solver import (
    _SOLUTION_CACHE_MAX,
    ClassStatus,
    PerformanceSolver,
    _compositions,
)
from repro.core.utility import PiecewiseLinearUtility
from repro.obs.registry import MetricsRegistry


def make_solver(num_classes=3, system_per_class=10_000.0):
    return PerformanceSolver(
        utility=PiecewiseLinearUtility(),
        oltp_model=OLTPResponseTimeModel(prior_slope=-4.2e-6),
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


class TestMemoizedSearchConformance:
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

    def test_greedy_memoized_matches_fresh_solver_randomized(self):
        # Beyond the exhaustive cut-off a brute-force reference is too
        # large; instead two independent solvers (each searching from a
        # cold cache) must agree exactly — the memo must not change which
        # moves the hill-climb takes.
        rng = random.Random(7)
        for _ in range(10):
            num_classes = rng.randint(4, 7)
            statuses = random_statuses(rng, num_classes)
            first = make_solver(num_classes).solve(statuses)
            second = make_solver(num_classes).solve(statuses)
            assert first.as_dict() == second.as_dict()

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


class TestSolutionCache:
    def test_repeat_solve_is_cache_hit_with_same_plan(self):
        rng = random.Random(11)
        statuses = random_statuses(rng, 3)
        solver = make_solver(3)
        first = solver.solve(statuses, now=0.0)
        assert solver.cache_hits == 0
        second = solver.solve(statuses, now=60.0)
        assert solver.cache_hits == 1
        assert second.as_dict() == first.as_dict()
        assert second.created_at == 60.0
        assert solver.last_evaluations == 0  # served without searching
        assert solver.solve_calls == 2

    def test_changed_measurement_misses_cache(self):
        solver = make_solver(3)
        rng = random.Random(13)
        statuses = random_statuses(rng, 3)
        solver.solve(statuses)
        statuses[0].current_value *= 0.5
        solver.solve(statuses)
        assert solver.cache_hits == 0
        assert solver.last_evaluations > 0

    def test_model_learning_invalidates_cache(self):
        # observe() bumps the model's observation count, which is part of
        # the cache key: a learned slope must not be served a stale plan.
        solver = make_solver(3)
        rng = random.Random(17)
        statuses = random_statuses(rng, 3)
        solver.solve(statuses)
        solver.oltp_model.observe(2_000.0, -0.05)
        solver.solve(statuses)
        assert solver.cache_hits == 0

    def test_cache_capacity_is_bounded(self):
        solver = make_solver(3)
        rng = random.Random(19)
        for _ in range(_SOLUTION_CACHE_MAX + 10):
            solver.solve(random_statuses(rng, 3))
        assert len(solver._solution_cache) <= _SOLUTION_CACHE_MAX

    def test_cache_hits_instrument_registered(self):
        registry = MetricsRegistry()
        solver = make_solver(3)
        solver.register_instruments(registry)
        rng = random.Random(23)
        statuses = random_statuses(rng, 3)
        solver.solve(statuses)
        solver.solve(statuses)
        sample = registry.sample(now=0.0)
        assert sample["solver_cache_hits_total"] == 1
