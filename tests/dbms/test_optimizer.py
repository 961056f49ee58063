"""Tests for the cost estimator."""

import numpy as np
import pytest

from repro.config import OptimizerConfig
from repro.dbms.optimizer import CostEstimator
from repro.errors import ConfigurationError
from repro.sim.rng import RandomStreams


def make_estimator(noise=0.0, **kwargs):
    config = OptimizerConfig(noise_sigma=noise, **kwargs)
    return CostEstimator(config, RandomStreams(seed=5))


def test_true_cost_formula():
    estimator = make_estimator(
        cpu_timerons_per_second=100.0, io_timerons_per_second=40.0, base_cost=25.0
    )
    assert estimator.true_cost(2.0, 3.0) == pytest.approx(25 + 200 + 120)


def test_zero_noise_estimate_is_exact():
    estimator = make_estimator(noise=0.0)
    assert estimator.estimate(1.0, 1.0) == pytest.approx(estimator.true_cost(1.0, 1.0))


def test_noisy_estimates_vary_but_center_on_truth():
    estimator = make_estimator(noise=0.3)
    exact = estimator.true_cost(2.0, 4.0)
    estimates = [estimator.estimate(2.0, 4.0) for _ in range(3000)]
    assert len(set(estimates)) > 2900  # actually noisy
    assert all(e > 0 for e in estimates)
    # Lognormal with median 1: median of estimates near the exact cost.
    assert np.median(estimates) == pytest.approx(exact, rel=0.05)


def test_estimates_counter():
    estimator = make_estimator()
    for _ in range(7):
        estimator.estimate(1.0, 1.0)
    assert estimator.estimates_made == 7


def test_price_is_true_cost_and_estimate_from_exactly_one_draw():
    priced = make_estimator(noise=0.3)
    separate = make_estimator(noise=0.3)  # same seed: same "optimizer" stream
    demands = [(0.01, 0.02), (2.0, 4.0), (0.0, 1.5)]
    for cpu, io in demands:
        assert priced.price(cpu, io) == (
            separate.true_cost(cpu, io),
            separate.estimate(cpu, io),
        )
    assert priced.estimates_made == separate.estimates_made == len(demands)
    # One draw per pricing: the stream's next value is draw number four.
    draws = RandomStreams(seed=5)
    expected = [draws.lognormal_factor("optimizer", 0.3) for _ in range(4)][-1]
    assert priced._noise() == expected


def test_invalid_config_rejected():
    with pytest.raises(ConfigurationError):
        OptimizerConfig(cpu_timerons_per_second=0).validate()
    with pytest.raises(ConfigurationError):
        OptimizerConfig(io_timerons_per_second=-1).validate()
    with pytest.raises(ConfigurationError):
        OptimizerConfig(base_cost=-1).validate()
    with pytest.raises(ConfigurationError):
        OptimizerConfig(noise_sigma=-0.1).validate()
