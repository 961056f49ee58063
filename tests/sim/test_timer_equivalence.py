"""Property: re-armed timers put every completion exactly where cancel() +
schedule() put it.

Two PS pools on one simulator are driven through a generated sequence of
submits (zero demands and simultaneous arrivals included), cancels,
efficiency changes and marker events at colliding instants and other
priorities — once with the production pool, once with the heap-event
reference (``reference_pool.HeapTimerPool``).  Everything observable must
match as exact floats: the completion trace, its interleaving with the
markers, the event count, the pools' accounting and their final virtual
clocks.  The production pool integrates its clock by the rate its timer was
last armed for, so after every operation and in every completion callback
that rate must be the per-job rate while a job is in service.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.resources import ProcessorSharingResource

from tests.sim.reference_pool import HeapTimerPool

#: Times and demands are multiples of a quarter second, so that below
#: saturation completions, arrivals and markers land on the same instants.
QUANTUM = 0.25

POOL = st.integers(0, 1)
OPS = st.one_of(
    # (pool, demand quanta, follow-up jobs submitted from on_complete)
    st.tuples(st.just("submit"), POOL, st.integers(0, 12), st.integers(0, 2)),
    st.tuples(st.just("cancel"), st.integers(0, 1 << 16)),
    st.tuples(st.just("efficiency"), POOL, st.sampled_from([0.25, 0.5, 0.75, 1.0])),
    # (delay quanta, priority)
    st.tuples(st.just("marker"), st.integers(0, 12), st.sampled_from([-1, 0, 0, 1])),
)
#: One driver event: (quanta since the previous one — 0 is a simultaneous
#: arrival —, its operations, whether the next driver event is scheduled
#: before or after them, i.e. with a lower or higher seq than the timers).
STEPS = st.lists(
    st.tuples(st.integers(0, 4), st.lists(OPS, min_size=1, max_size=5), st.booleans()),
    min_size=1,
    max_size=25,
)


def check_rates(pools):
    """The rate the production pool integrates by is its per-job rate."""
    for pool in pools:
        if isinstance(pool, ProcessorSharingResource) and pool.active_jobs:
            assert pool._rate == pool.per_job_rate()


def virtual_clock(pool):
    if isinstance(pool, ProcessorSharingResource):
        return pool._vtime
    return pool.vtime


def run_world(pool_class, servers, steps):
    sim = Simulator()
    pools = [pool_class(sim, "p{}".format(i), servers[i]) for i in range(2)]
    trace = []
    jobs = []

    def submit(pool_index, quanta, follow_ups):
        def done(name):
            check_rates(pools)
            trace.append((name, sim.now))
            if follow_ups:
                submit(pool_index, quanta, follow_ups - 1)

        name = "j{}".format(len(jobs))
        pool = pools[pool_index]
        jobs.append((pool, name, pool.submit(quanta * QUANTUM, done, name)))

    def apply(op):
        if op[0] == "submit":
            submit(*op[1:])
        elif op[0] == "cancel":
            if jobs:
                pool, name, handle = jobs[op[1] % len(jobs)]
                trace.append(("cancel", name, pool.cancel(handle)))
        elif op[0] == "efficiency":
            pools[op[1]].set_efficiency(op[2])
        else:
            tag = "m{}".format(len(trace))
            sim.schedule(
                op[1] * QUANTUM, lambda: trace.append((tag, sim.now)), tag, priority=op[2]
            )
        check_rates(pools)

    def drive(index):
        if index == len(steps):
            return
        _, ops, next_first = steps[index]
        follow = index + 1
        delay = steps[follow][0] * QUANTUM if follow < len(steps) else 0.0
        if next_first:
            sim.schedule(delay, lambda: drive(follow))
        for op in ops:
            apply(op)
        if not next_first:
            sim.schedule(delay, lambda: drive(follow))

    sim.schedule(steps[0][0] * QUANTUM, lambda: drive(0))
    # Half-way through by run_until (timers due later must stay armed),
    # the rest by run().
    sim.run_until(sum(step[0] for step in steps) * QUANTUM / 2)
    sim.run()
    accounting = [
        (p.completed_jobs, p.completed_demand, p.active_jobs, virtual_clock(p))
        for p in pools
    ]
    return trace, sim.now, sim.fired_events, accounting


@given(st.tuples(st.integers(1, 17), st.integers(1, 17)), STEPS)
@settings(max_examples=300, deadline=None)
def test_pool_timer_matches_cancel_and_schedule_reference(servers, steps):
    new = run_world(ProcessorSharingResource, servers, steps)
    reference = run_world(HeapTimerPool, servers, steps)
    # repr() compares floats exactly (and tells -0.0 from 0.0).
    assert repr(new) == repr(reference)
