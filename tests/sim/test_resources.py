"""Tests for the virtual-time processor-sharing resource."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.resources import ProcessorSharingResource, PSJob


def make_pool(sim, servers=2, speed=1.0):
    return ProcessorSharingResource(sim, "pool", servers, speed)


def run_job(sim, pool, demand):
    done = []
    pool.submit(PSJob("j", demand, on_complete=lambda j: done.append(sim.now)))
    sim.run()
    return done[0]


def test_single_job_takes_its_demand(sim):
    pool = make_pool(sim, servers=2)
    assert run_job(sim, pool, 5.0) == pytest.approx(5.0)


def test_job_under_capacity_runs_at_full_speed(sim):
    pool = make_pool(sim, servers=4)
    finish = []
    for i in range(4):
        pool.submit(PSJob("j{}".format(i), 3.0, on_complete=lambda j: finish.append(sim.now)))
    sim.run()
    assert finish == pytest.approx([3.0] * 4)


def test_jobs_over_capacity_share_equally(sim):
    # 4 equal jobs on 2 servers: each runs at rate 1/2, so 3s of demand
    # takes 6s of wall clock.
    pool = make_pool(sim, servers=2)
    finish = []
    for i in range(4):
        pool.submit(PSJob("j{}".format(i), 3.0, on_complete=lambda j: finish.append(sim.now)))
    sim.run()
    assert finish == pytest.approx([6.0] * 4)


def test_late_arrival_slows_existing_job(sim):
    # Job A (demand 4) alone on 1 server; at t=2, job B (demand 1) arrives.
    # A has 2 demand left, shared rate 1/2: A finishes at 2 + 2/(1/2)=6 if B
    # ran that long, but B finishes first at t=4 (1 demand at rate 1/2);
    # then A has 1 left at full rate -> t=5.
    pool = make_pool(sim, servers=1)
    finish = {}
    pool.submit(PSJob("a", 4.0, on_complete=lambda j: finish.setdefault("a", sim.now)))
    sim.schedule(
        2.0,
        lambda: pool.submit(
            PSJob("b", 1.0, on_complete=lambda j: finish.setdefault("b", sim.now))
        ),
    )
    sim.run()
    assert finish["b"] == pytest.approx(4.0)
    assert finish["a"] == pytest.approx(5.0)


def test_speed_scales_service(sim):
    pool = make_pool(sim, servers=1, speed=2.0)
    assert run_job(sim, pool, 4.0) == pytest.approx(2.0)


def test_efficiency_slows_everything(sim):
    pool = make_pool(sim, servers=1)
    pool.set_efficiency(0.5)
    assert run_job(sim, pool, 2.0) == pytest.approx(4.0)


def test_efficiency_change_mid_service(sim):
    pool = make_pool(sim, servers=1)
    done = []
    pool.submit(PSJob("j", 4.0, on_complete=lambda j: done.append(sim.now)))
    # Halve speed after 2s: 2 demand done, remaining 2 at rate 0.5 -> 4s more.
    sim.schedule(2.0, lambda: pool.set_efficiency(0.5))
    sim.run()
    assert done[0] == pytest.approx(6.0)


def test_nonpositive_efficiency_rejected(sim):
    pool = make_pool(sim)
    with pytest.raises(SimulationError):
        pool.set_efficiency(0.0)


def test_zero_demand_job_completes_immediately(sim):
    pool = make_pool(sim)
    done = []
    pool.submit(PSJob("z", 0.0, on_complete=lambda j: done.append(sim.now)))
    sim.run()
    assert done == [0.0]


def test_negative_demand_rejected():
    with pytest.raises(SimulationError):
        PSJob("bad", -1.0)


def test_cancel_removes_job(sim):
    pool = make_pool(sim, servers=1)
    done = []
    victim = PSJob("victim", 10.0, on_complete=lambda j: done.append("victim"))
    pool.submit(victim)
    pool.submit(PSJob("keeper", 2.0, on_complete=lambda j: done.append(sim.now)))
    sim.schedule(1.0, lambda: pool.cancel(victim))
    sim.run()
    # keeper: 1s at rate 1/2 (0.5 done), then 1.5 left at full -> t=2.5
    assert done == [pytest.approx(2.5)]
    assert pool.active_jobs == 0


def test_cancel_completed_job_returns_false(sim):
    pool = make_pool(sim)
    job = PSJob("j", 1.0)
    pool.submit(job)
    sim.run()
    assert not pool.cancel(job)


def test_remaining_demand_decreases(sim):
    pool = make_pool(sim, servers=1)
    job = PSJob("j", 10.0)
    pool.submit(job)
    sim.schedule(4.0, lambda: None)
    sim.run_until(4.0)
    assert pool.remaining_demand(job) == pytest.approx(6.0)


def test_completion_callback_can_resubmit(sim):
    pool = make_pool(sim, servers=1)
    finishes = []

    def resubmit(job):
        finishes.append(sim.now)
        if len(finishes) < 3:
            pool.submit(PSJob("next", 1.0, on_complete=resubmit))

    pool.submit(PSJob("first", 1.0, on_complete=resubmit))
    sim.run()
    assert finishes == pytest.approx([1.0, 2.0, 3.0])


def test_work_conservation_counters(sim):
    pool = make_pool(sim, servers=2)
    for i in range(5):
        pool.submit(PSJob("j{}".format(i), 2.0))
    sim.run()
    assert pool.completed_jobs == 5
    assert pool.completed_demand == pytest.approx(10.0)


def test_utilization_of_saturated_pool(sim):
    pool = make_pool(sim, servers=1)
    pool.submit(PSJob("j", 5.0))
    sim.run()
    assert pool.utilization() == pytest.approx(1.0)


def test_mean_jobs_in_service(sim):
    pool = make_pool(sim, servers=2)
    pool.submit(PSJob("a", 2.0))
    pool.submit(PSJob("b", 2.0))
    sim.run()
    # Two jobs for the whole (2s) horizon.
    assert pool.mean_jobs_in_service() == pytest.approx(2.0)


def test_invalid_construction():
    sim = Simulator()
    with pytest.raises(SimulationError):
        ProcessorSharingResource(sim, "bad", 0)
    with pytest.raises(SimulationError):
        ProcessorSharingResource(sim, "bad", 1, speed=0.0)


def test_many_jobs_finish_in_demand_order_when_equal_arrival(sim):
    pool = make_pool(sim, servers=1)
    finished = []
    for name, demand in (("small", 1.0), ("large", 5.0), ("medium", 2.0)):
        pool.submit(PSJob(name, demand, on_complete=lambda j: finished.append(j.name)))
    sim.run()
    assert finished == ["small", "medium", "large"]


# ----------------------------------------------------------------------
# A pool acts only on the jobs it holds
# ----------------------------------------------------------------------
def test_cancel_of_a_job_never_submitted_is_refused(sim):
    pool = make_pool(sim)
    stray = PSJob("stray", 1.0)
    assert pool.cancel(stray) is False
    assert pool.remaining_demand(stray) == 0.0
    assert pool.active_jobs == 0 and not stray.cancelled


def test_cancel_on_another_pool_leaves_the_job_in_service(sim):
    pool_a, pool_b = make_pool(sim, servers=1), make_pool(sim, servers=1)
    done = []
    job = PSJob("j", 2.0, on_complete=done.append)
    pool_a.submit(job)
    assert pool_b.cancel(job) is False
    assert pool_b.remaining_demand(job) == 0.0
    assert pool_a.remaining_demand(job) == pytest.approx(2.0)
    assert (pool_a.active_jobs, pool_b.active_jobs) == (1, 0) and not job.cancelled
    sim.run()
    assert done == [job] and job.finish_time == pytest.approx(2.0)
    assert pool_a.active_jobs == 0 and pool_a.completed_jobs == 1


def test_submitting_a_job_twice_raises(sim):
    pool, other = make_pool(sim), make_pool(sim)
    job = PSJob("j", 1.0)
    pool.submit(job)
    for second in (pool, other):
        with pytest.raises(SimulationError, match="submitted twice"):
            second.submit(job)
    sim.run()
    assert pool.active_jobs == 0 and pool.completed_jobs == 1
    with pytest.raises(SimulationError, match="submitted twice"):
        pool.submit(job)  # a job is served once


def test_completion_hands_back_the_owner_or_else_the_job(sim):
    pool = make_pool(sim)
    got = []
    owner = object()
    plain = pool.submit(PSJob("plain", 1.0, on_complete=got.append))
    pool.submit(PSJob("owned", 2.0, on_complete=got.append, owner=owner))
    sim.run()
    assert got == [plain, owner]
