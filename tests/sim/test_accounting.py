"""Regression tests for PS-pool accounting.

These pin the fixes that rode along with the hot-path optimization work:
accounting from construction, a clock that stands still while the pool is
idle, and the demand-proportional completion tolerance at large virtual
times.
"""

import pytest

from repro.sim.engine import Simulator
from repro.sim.resources import ProcessorSharingResource


def ignore(owner):
    """Completion callback of a job whose finish the test does not watch."""


# ----------------------------------------------------------------------
# Accounting and the pool's one clock
# ----------------------------------------------------------------------
def test_accounting_measures_from_construction_not_time_zero():
    # A pool built at t=10 serves a 2-second job in 2 seconds: its clock
    # starts at construction, and the 10 seconds before it are no service.
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    assert sim.now == 10.0
    pool = ProcessorSharingResource(sim, "late", servers=1)
    pool.submit(2.0, ignore)
    sim.run()
    assert sim.now == 12.0
    assert (pool.completed_jobs, pool.completed_demand) == (1, 2.0)


def test_idle_pool_clock_stands_still():
    # Between the last completion and the next arrival no job is in
    # service, so virtual time must not move however long the gap.
    sim = Simulator()
    pool = ProcessorSharingResource(sim, "idle", servers=2)
    pool.submit(2.0, ignore)
    sim.run()
    finish_vtime = pool._vtime
    finish = []
    sim.schedule(8.0, lambda: pool.submit(3.0, lambda owner: finish.append(sim.now)))
    sim.run()
    assert finish == [13.0]
    assert pool._vtime == finish_vtime + 3.0
    assert (pool.completed_jobs, pool.completed_demand) == (2, 5.0)


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
