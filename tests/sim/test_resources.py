"""Tests for the virtual-time processor-sharing resource."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.resources import ProcessorSharingResource


def ignore(owner):
    """Completion callback of a job whose finish the test does not watch."""


def make_pool(sim, servers=2, speed=1.0):
    return ProcessorSharingResource(sim, "pool", servers, speed)


def run_job(sim, pool, demand):
    done = []
    pool.submit(demand, lambda owner: done.append(sim.now))
    sim.run()
    return done[0]


def test_single_job_takes_its_demand(sim):
    pool = make_pool(sim, servers=2)
    assert run_job(sim, pool, 5.0) == pytest.approx(5.0)


def test_job_under_capacity_runs_at_full_speed(sim):
    pool = make_pool(sim, servers=4)
    finish = []
    for i in range(4):
        pool.submit(3.0, lambda owner: finish.append(sim.now))
    sim.run()
    assert finish == pytest.approx([3.0] * 4)


def test_jobs_over_capacity_share_equally(sim):
    # 4 equal jobs on 2 servers: each runs at rate 1/2, so 3s of demand
    # takes 6s of wall clock.
    pool = make_pool(sim, servers=2)
    finish = []
    for i in range(4):
        pool.submit(3.0, lambda owner: finish.append(sim.now))
    sim.run()
    assert finish == pytest.approx([6.0] * 4)


def test_late_arrival_slows_existing_job(sim):
    # Job A (demand 4) alone on 1 server; at t=2, job B (demand 1) arrives.
    # A has 2 demand left, shared rate 1/2: A finishes at 2 + 2/(1/2)=6 if B
    # ran that long, but B finishes first at t=4 (1 demand at rate 1/2);
    # then A has 1 left at full rate -> t=5.
    pool = make_pool(sim, servers=1)
    finish = {}
    pool.submit(4.0, lambda owner: finish.setdefault(owner, sim.now), "a")
    sim.schedule(
        2.0,
        lambda: pool.submit(1.0, lambda owner: finish.setdefault(owner, sim.now), "b"),
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
    pool.submit(4.0, lambda owner: done.append(sim.now))
    # Halve speed after 2s: 2 demand done, remaining 2 at rate 0.5 -> 4s more.
    sim.schedule(2.0, lambda: pool.set_efficiency(0.5))
    sim.run()
    assert done[0] == pytest.approx(6.0)


def test_nonpositive_efficiency_rejected(sim):
    pool = make_pool(sim)
    with pytest.raises(SimulationError):
        pool.set_efficiency(0.0)


def test_nan_efficiency_rejected(sim):
    pool = make_pool(sim)
    pool.submit(1.0, ignore)
    with pytest.raises(SimulationError):
        pool.set_efficiency(float("nan"))
    assert pool.efficiency == 1.0
    sim.run()
    assert pool.completed_jobs == 1 and sim.now == 1.0


def test_infinite_efficiency_rejected(sim):
    # An infinite rate makes every remaining demand finish "now": the run
    # would never return.
    pool = make_pool(sim)
    pool.submit(1.0, ignore)
    with pytest.raises(SimulationError):
        pool.set_efficiency(float("inf"))
    assert pool.efficiency == 1.0


def test_zero_demand_job_completes_immediately(sim):
    pool = make_pool(sim)
    done = []
    pool.submit(0.0, lambda owner: done.append(sim.now))
    sim.run()
    assert done == [0.0]


def test_negative_demand_rejected(sim):
    pool = make_pool(sim)
    with pytest.raises(SimulationError):
        pool.submit(-1.0, ignore)
    assert pool.active_jobs == 0


def test_nan_demand_rejected(sim):
    # A NaN finish time never completes: the pool would wake up at t = 0
    # over and over.
    pool = make_pool(sim)
    with pytest.raises(SimulationError):
        pool.submit(float("nan"), ignore)
    assert pool.active_jobs == 0 and sim.run() == 0


def test_infinite_demand_rejected(sim):
    # Its completion slack _EPS * (1 + demand) is infinite too, so the job
    # would "complete" at the pool's next firing.
    pool = make_pool(sim)
    with pytest.raises(SimulationError):
        pool.submit(float("inf"), ignore)
    assert pool.active_jobs == 0


def test_cancel_removes_job(sim):
    pool = make_pool(sim, servers=1)
    done = []
    victim = pool.submit(10.0, done.append, "victim")
    pool.submit(2.0, lambda owner: done.append(sim.now))
    sim.schedule(1.0, lambda: pool.cancel(victim))
    sim.run()
    # keeper: 1s at rate 1/2 (0.5 done), then 1.5 left at full -> t=2.5
    assert done == [pytest.approx(2.5)]
    assert pool.active_jobs == 0


def test_cancel_completed_job_returns_false(sim):
    pool = make_pool(sim)
    job = pool.submit(1.0, ignore)
    sim.run()
    assert not pool.cancel(job)


def test_remaining_demand_decreases(sim):
    pool = make_pool(sim, servers=1)
    job = pool.submit(10.0, ignore)
    sim.schedule(4.0, lambda: None)
    sim.run_until(4.0)
    assert pool.remaining_demand(job) == pytest.approx(6.0)


def test_completion_callback_can_resubmit(sim):
    pool = make_pool(sim, servers=1)
    finishes = []

    def resubmit(owner):
        finishes.append(sim.now)
        if len(finishes) < 3:
            pool.submit(1.0, resubmit)

    pool.submit(1.0, resubmit)
    sim.run()
    assert finishes == pytest.approx([1.0, 2.0, 3.0])


def test_work_conservation_counters(sim):
    pool = make_pool(sim, servers=2)
    for i in range(5):
        pool.submit(2.0, ignore)
    sim.run()
    assert pool.completed_jobs == 5
    assert pool.completed_demand == pytest.approx(10.0)


def test_invalid_construction():
    sim = Simulator()
    with pytest.raises(SimulationError):
        ProcessorSharingResource(sim, "bad", 0)
    with pytest.raises(SimulationError):
        ProcessorSharingResource(sim, "bad", 1, speed=0.0)


@pytest.mark.parametrize("servers", [1.5, 2.7, True, float("inf")])
def test_server_count_must_be_an_integer(servers):
    # Fractions used to run int(servers) servers, True one server, and inf
    # failed in int(inf) with a bare OverflowError.
    with pytest.raises(SimulationError, match="integer"):
        ProcessorSharingResource(Simulator(), "bad", servers)


def test_infinite_speed_rejected():
    # An infinite-speed pool woke 100,000 times at t = 0 and completed
    # nothing (remaining virtual time / inf is 0 before the job is due).
    with pytest.raises(SimulationError):
        ProcessorSharingResource(Simulator(), "bad", 1, speed=float("inf"))


def test_many_jobs_finish_in_demand_order_when_equal_arrival(sim):
    pool = make_pool(sim, servers=1)
    finished = []
    for name, demand in (("small", 1.0), ("large", 5.0), ("medium", 2.0)):
        pool.submit(demand, finished.append, name)
    sim.run()
    assert finished == ["small", "medium", "large"]


# ----------------------------------------------------------------------
# A pool acts only on the jobs it holds
# ----------------------------------------------------------------------
def test_cancel_of_a_job_never_submitted_is_refused(sim):
    pool = make_pool(sim)
    assert pool.cancel(0) is False
    assert pool.remaining_demand(0) == 0.0
    assert pool.active_jobs == 0
    keeper = pool.submit(1.0, ignore)
    assert pool.cancel(keeper + 1) is False
    assert pool.remaining_demand(keeper + 1) == 0.0
    assert pool.active_jobs == 1


def test_cancel_on_another_pool_leaves_the_job_in_service(sim):
    pool_a, pool_b = make_pool(sim, servers=1), make_pool(sim, servers=1)
    done = []
    job = pool_a.submit(2.0, done.append, "owner")
    assert pool_b.cancel(job) is False
    assert pool_b.remaining_demand(job) == 0.0
    assert pool_a.remaining_demand(job) == pytest.approx(2.0)
    assert (pool_a.active_jobs, pool_b.active_jobs) == (1, 0)
    sim.run()
    assert done == ["owner"] and sim.now == pytest.approx(2.0)
    assert pool_a.active_jobs == 0 and pool_a.completed_jobs == 1


def test_every_submit_is_a_new_job_served_once(sim):
    pool = make_pool(sim)
    got = []
    handles = [pool.submit(1.0, got.append, "same") for _ in range(3)]
    assert len(set(handles)) == 3 and pool.active_jobs == 3
    assert pool.cancel(handles[1]) is True
    assert pool.cancel(handles[1]) is False  # already gone
    sim.run()
    assert got == ["same", "same"]
    assert pool.active_jobs == 0 and pool.completed_jobs == 2
    for handle in handles:  # completed or cancelled: nothing left to act on
        assert pool.cancel(handle) is False
        assert pool.remaining_demand(handle) == 0.0


def test_completion_hands_back_the_owner(sim):
    pool = make_pool(sim)
    got = []
    owner = object()
    pool.submit(1.0, got.append)
    pool.submit(2.0, got.append, owner)
    sim.run()
    assert got == [None, owner]


def test_cancel_keeps_the_heap_ordered(sim):
    # Cancelling from the middle of the heap moves its last entry into the
    # hole; the survivors must still complete in finish order.
    pool = make_pool(sim, servers=8)
    finished = []
    handles = {
        demand: pool.submit(demand, finished.append, demand)
        for demand in (5.0, 1.0, 4.0, 2.0, 7.0, 3.0, 6.0)
    }
    for demand in (1.0, 4.0, 6.0):
        assert pool.cancel(handles[demand]) is True
    sim.run()
    assert finished == [2.0, 3.0, 5.0, 7.0]
    assert sim.now == pytest.approx(7.0)
