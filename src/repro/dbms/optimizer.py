"""The query optimizer's cost estimator.

DB2 prices every statement in *timerons*, "a generic cost measure used by the
DB2 UDB optimizer to express the combined resource usage to execute a query"
(Section 2).  The Query Scheduler trusts these estimates for every admission
decision, and the paper closes by noting that "cost-based resource allocation
is somehow inaccurate" — so the estimator here computes the exact cost from a
query's true demands and then perturbs it with multiplicative lognormal noise
whose magnitude is configurable (and ablatable; see
``benchmarks/bench_ablation_noise.py``).
"""

from __future__ import annotations

from typing import Tuple

from repro.config import OptimizerConfig
from repro.sim.rng import RandomStreams


class CostEstimator:
    """Prices queries in timerons with configurable estimation error.

    Parameters
    ----------
    config:
        Timeron rates and noise magnitude.
    rng:
        Random streams; the estimator draws from stream ``"optimizer"``.
    """

    def __init__(self, config: OptimizerConfig, rng: RandomStreams) -> None:
        config.validate()
        self.config = config
        self._noise = rng.lognormal_draws("optimizer", config.noise_sigma)
        self._estimates = 0

    @property
    def estimates_made(self) -> int:
        """Number of estimates produced so far."""
        return self._estimates

    def true_cost(self, cpu_demand: float, io_demand: float) -> float:
        """Exact timeron cost of the given demands (no noise)."""
        return self.config.true_cost(cpu_demand, io_demand)

    def price(self, cpu_demand: float, io_demand: float) -> Tuple[float, float]:
        """``(true cost, noisy estimate)`` of one statement, priced once.

        The error is multiplicative lognormal with median 1 so estimates are
        unbiased in the median and never negative.  One draw of the
        ``"optimizer"`` stream per call.
        """
        self._estimates += 1
        config = self.config
        # OptimizerConfig.true_cost, read here: once per statement.
        exact = (
            config.base_cost
            + config.cpu_timerons_per_second * cpu_demand
            + config.io_timerons_per_second * io_demand
        )
        return exact, exact * self._noise()

    def estimate(self, cpu_demand: float, io_demand: float) -> float:
        """Noisy timeron estimate, as the optimizer would report it."""
        return self.price(cpu_demand, io_demand)[1]
