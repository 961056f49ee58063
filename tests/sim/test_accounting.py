"""Regression tests for PS-pool accounting.

These pin the fixes that rode along with the hot-path optimization work:
the utilization horizon window, elapsed-since-construction averaging, and
the demand-proportional completion tolerance at large virtual times.
"""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.resources import ProcessorSharingResource


def ignore(owner):
    """Completion callback of a job whose finish the test does not watch."""


# ----------------------------------------------------------------------
# Utilization / mean-jobs accounting
# ----------------------------------------------------------------------
def test_utilization_horizon_extends_window():
    sim = Simulator()
    pool = ProcessorSharingResource(sim, "pool", servers=1)
    pool.submit(2.0, ignore)
    sim.run()
    assert pool.utilization() == pytest.approx(1.0)
    # A horizon past "now" dilutes the average with the idle tail.
    assert pool.utilization(horizon=4.0) == pytest.approx(0.5)


def test_utilization_rejects_stale_horizon():
    sim = Simulator()
    pool = ProcessorSharingResource(sim, "pool", servers=1)
    pool.submit(2.0, ignore)
    sim.run()
    # Busy time is already integrated over 2 seconds; a 1-second window
    # would report utilization above 1.0.
    with pytest.raises(SimulationError, match="stale horizon"):
        pool.utilization(horizon=1.0)


def test_accounting_measures_from_construction_not_time_zero():
    # A pool built at t=10 that is then busy for 2 seconds is 100% busy,
    # not 2/12 busy: both averages must use elapsed-since-construction.
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    assert sim.now == 10.0
    pool = ProcessorSharingResource(sim, "late", servers=1)
    pool.submit(2.0, ignore)
    sim.run()
    assert sim.now == pytest.approx(12.0)
    assert pool.utilization() == pytest.approx(1.0)
    assert pool.mean_jobs_in_service() == pytest.approx(1.0)


def test_idle_pool_reports_zero_averages():
    sim = Simulator()
    pool = ProcessorSharingResource(sim, "idle", servers=2)
    assert pool.utilization() == 0.0
    assert pool.mean_jobs_in_service() == 0.0


# ----------------------------------------------------------------------
# Long-horizon completion tolerance
# ----------------------------------------------------------------------
def test_completion_tolerance_does_not_drift_at_large_vtime():
    # The completion slack is proportional to the job's own demand plus a
    # few ulps of the virtual clock.  An absolute vtime-proportional
    # tolerance would, at vtime ~1e9, carry ~1 second of slack and
    # complete a demand-1.0 job the instant it was submitted.
    sim = Simulator()
    pool = ProcessorSharingResource(sim, "pool", servers=1)
    pool.submit(1e9, ignore)
    sim.run()
    assert sim.now == pytest.approx(1e9)
    finish = []
    pool.submit(1.0, lambda owner: finish.append(sim.now))
    assert finish == []  # must not complete on submission
    sim.run()
    assert len(finish) == 1
    elapsed = finish[0] - 1e9
    assert elapsed == pytest.approx(1.0, rel=1e-6)
    assert elapsed > 0.9


def test_long_run_preserves_short_job_ordering():
    # Two unequal jobs submitted at vtime ~1e9 must still complete in
    # demand order with correct spacing.
    sim = Simulator()
    pool = ProcessorSharingResource(sim, "pool", servers=2)
    pool.submit(1e9, ignore)
    sim.run()
    order = []
    pool.submit(2.0, lambda name: order.append((name, sim.now)), "a")
    pool.submit(5.0, lambda name: order.append((name, sim.now)), "b")
    sim.run()
    assert [name for name, _ in order] == ["a", "b"]
    assert order[0][1] - 1e9 == pytest.approx(2.0, rel=1e-6)
    assert order[1][1] - 1e9 == pytest.approx(5.0, rel=1e-6)
