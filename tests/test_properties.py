"""Property-based tests (hypothesis) for core data structures and invariants.

Each property pins an invariant the rest of the system leans on:

* PS resources conserve work and never finish a job early;
* the simulator never runs time backwards and fires in order;
* the solver always emits a feasible plan that spends the budget;
* the paper's models respect their clamps for any input;
* goals/utilities keep their monotonicity contracts everywhere.
"""

import math

import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.modeling import (
    OLAPVelocityModel,
    OLTPResponseTimeModel,
    PaperAnalyticModel,
)
from repro.core.plan import SchedulingPlan
from repro.core.service_class import (
    ResponseTimeGoal,
    ServiceClass,
    VelocityGoal,
)
from repro.core.solver import ClassStatus, PerformanceSolver
from repro.core.utility import (
    PiecewiseLinearUtility,
    SigmoidUtility,
    StepUtility,
)
from repro.dbms.query import make_phases
from repro.workloads.trace import TraceEntry
from repro.sim.engine import Simulator
from repro.sim.resources import ProcessorSharingResource
from repro.sim.stats import WelfordAccumulator
from tests.conftest import patroller_dispatcher, patroller_with
from tests.core.reference_solver import _compositions

# ---------------------------------------------------------------------------
# Simulator ordering
# ---------------------------------------------------------------------------


@given(st.lists(st.floats(min_value=0.0, max_value=1e5), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_events_always_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


# ---------------------------------------------------------------------------
# Processor sharing conservation
# ---------------------------------------------------------------------------


@given(
    demands=st.lists(
        st.floats(min_value=0.01, max_value=50.0), min_size=1, max_size=15
    ),
    servers=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_ps_completes_all_work_no_earlier_than_ideal(demands, servers):
    sim = Simulator()
    pool = ProcessorSharingResource(sim, "p", servers)
    finishes = {}
    for index, demand in enumerate(demands):
        pool.submit(demand, lambda name: finishes.__setitem__(name, sim.now), str(index))
    sim.run()
    assert len(finishes) == len(demands)
    assert pool.completed_demand == sum(demands) or math.isclose(
        pool.completed_demand, sum(demands)
    )
    for index, demand in enumerate(demands):
        # No job can finish before its demand at full speed...
        assert finishes[str(index)] >= demand * (1 - 1e-9)
    # ...and the whole batch cannot beat the aggregate capacity bound.
    makespan = max(finishes.values())
    assert makespan >= sum(demands) / servers * (1 - 1e-9)


@given(
    demands=st.lists(
        st.floats(min_value=0.1, max_value=20.0), min_size=2, max_size=10
    )
)
@settings(max_examples=40, deadline=None)
def test_ps_equal_arrivals_finish_in_demand_order(demands):
    assume(len(set(round(d, 6) for d in demands)) == len(demands))
    sim = Simulator()
    pool = ProcessorSharingResource(sim, "p", 1)
    order = []
    for index, demand in enumerate(demands):
        pool.submit(demand, order.append, (index, demand))
    sim.run()
    assert [name[1] for name in order] == sorted(demands)


# ---------------------------------------------------------------------------
# Phase construction
# ---------------------------------------------------------------------------


@given(
    cpu=st.floats(min_value=0.0, max_value=100.0),
    io=st.floats(min_value=0.0, max_value=100.0),
    rounds=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=100, deadline=None)
def test_make_phases_conserves_demand(cpu, io, rounds):
    assume(cpu + io > 0)
    phases = make_phases(cpu, io, rounds)
    total_cpu = sum(demand for kind, demand in phases if kind == "cpu")
    total_io = sum(demand for kind, demand in phases if kind == "io")
    assert math.isclose(total_cpu, cpu, abs_tol=1e-9)
    assert math.isclose(total_io, io, abs_tol=1e-9)
    assert all(demand >= 0 for _, demand in phases)


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


@given(
    velocity=st.floats(min_value=-2.0, max_value=3.0),
    previous=st.floats(min_value=0.0, max_value=1e6),
    new=st.floats(min_value=0.0, max_value=1e6),
)
@settings(max_examples=150, deadline=None)
def test_velocity_model_always_in_unit_interval(velocity, previous, new):
    predicted = OLAPVelocityModel.predict(velocity, previous, new)
    assert 0.0 <= predicted <= 1.0


@given(
    t=st.floats(min_value=0.0, max_value=10.0),
    c_prev=st.floats(min_value=0.0, max_value=1e5),
    c_new=st.floats(min_value=0.0, max_value=1e5),
)
@settings(max_examples=100, deadline=None)
def test_oltp_model_monotone_decreasing_in_limit(t, c_prev, c_new):
    model = OLTPResponseTimeModel(prior_slope=-4e-6)
    predicted = model.predict(t, c_prev, c_new)
    assert predicted >= 1e-3
    if c_new > c_prev:
        assert predicted <= model.predict(t, c_prev, c_prev) + 1e-12


@given(prior=st.floats(min_value=-1e-3, max_value=-1e-9))
@settings(max_examples=60, deadline=None)
def test_oltp_model_slope_always_negative_and_bounded(prior):
    """The slope is the calibrated prior, exactly: it never drifts."""
    model = OLTPResponseTimeModel(prior_slope=prior)
    assert model.slope == prior < 0


# ---------------------------------------------------------------------------
# Goals and utilities
# ---------------------------------------------------------------------------


@given(
    goal=st.floats(min_value=0.05, max_value=1.0),
    value=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=100, deadline=None)
def test_velocity_goal_satisfied_iff_achievement_at_least_one(goal, value):
    g = VelocityGoal(goal)
    assert g.satisfied(value) == (g.achievement(value) >= 1.0)
    assert g.satisfied(value) == (value >= goal)


@given(
    goal=st.floats(min_value=0.05, max_value=5.0),
    value=st.floats(min_value=0.001, max_value=20.0),
)
@settings(max_examples=100, deadline=None)
def test_response_goal_satisfied_iff_at_or_below(goal, value):
    g = ResponseTimeGoal(goal)
    assert g.satisfied(value) == (value <= goal + 1e-12)
    # Linear in value: equal deltas, equal achievement deltas.
    assert g.achievement(value) <= 2.0


@given(
    r1=st.floats(min_value=0.0, max_value=2.5),
    r2=st.floats(min_value=0.0, max_value=2.5),
    importance=st.integers(min_value=1, max_value=5),
    family=st.sampled_from([PiecewiseLinearUtility(), SigmoidUtility(), StepUtility()]),
)
@settings(max_examples=150, deadline=None)
def test_utilities_monotone_in_achievement(r1, r2, importance, family):
    low, high = min(r1, r2), max(r1, r2)
    assert family.value(low, importance) <= family.value(high, importance) + 1e-12


# ---------------------------------------------------------------------------
# Solver feasibility
# ---------------------------------------------------------------------------


@st.composite
def solver_inputs(draw):
    n_olap = draw(st.integers(min_value=1, max_value=3))
    statuses = []
    for index in range(n_olap):
        goal = draw(st.floats(min_value=0.2, max_value=0.9))
        velocity = draw(st.floats(min_value=0.05, max_value=1.0))
        limit = draw(st.floats(min_value=1_000.0, max_value=25_000.0))
        importance = draw(st.integers(min_value=1, max_value=3))
        statuses.append(
            ClassStatus(
                ServiceClass("olap{}".format(index), "olap", VelocityGoal(goal), importance),
                limit,
                velocity,
            )
        )
    if draw(st.booleans()):
        t = draw(st.floats(min_value=0.01, max_value=1.0))
        limit = draw(st.floats(min_value=1_000.0, max_value=25_000.0))
        statuses.append(
            ClassStatus(
                ServiceClass("oltp", "oltp", ResponseTimeGoal(0.25), 3), limit, t
            )
        )
    return statuses


@given(statuses=solver_inputs())
@settings(max_examples=50, deadline=None)
def test_solver_always_emits_feasible_full_allocation(statuses):
    solver = PerformanceSolver(
        utility=PiecewiseLinearUtility(),
        model=PaperAnalyticModel(
            oltp_model=OLTPResponseTimeModel(prior_slope=-4.2e-6)
        ),
        system_cost_limit=30_000.0,
        grid_timerons=1_000.0,
        min_class_limit=1_000.0,
    )
    plan = solver.solve(statuses)
    assert plan.total_allocated <= 30_000.0 + 1e-6
    assert plan.total_allocated >= 30_000.0 - 1_000.0  # spends to the grid
    for status in statuses:
        assert plan.limit(status.service_class.name) >= 1_000.0 - 1e-9


@given(
    total=st.integers(min_value=0, max_value=12),
    parts=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_compositions_cover_simplex_exactly(total, parts):
    combos = list(_compositions(total, parts))
    assert all(sum(c) == total for c in combos)
    assert all(len(c) == parts for c in combos)
    assert len(set(combos)) == len(combos)
    expected = math.comb(total + parts - 1, parts - 1)
    assert len(combos) == expected


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


@given(
    limits=st.lists(st.floats(min_value=0.0, max_value=10_000.0), min_size=1, max_size=6)
)
@settings(max_examples=80, deadline=None)
def test_plan_accepts_exactly_the_sum_invariant(limits):
    total = sum(limits)
    names = {"c{}".format(i): v for i, v in enumerate(limits)}
    plan = SchedulingPlan(names, max(total, 1e-9) * 1.0000001)
    assert plan.total_allocated <= plan.system_cost_limit * (1 + 1e-5)
    assert plan.slack >= -1e-6


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=200
    )
)
@settings(max_examples=80, deadline=None)
def test_welford_mean_within_min_max(values):
    acc = WelfordAccumulator()
    for v in values:
        acc.add(v)
    assert acc.minimum - 1e-6 <= acc.mean <= acc.maximum + 1e-6
    assert acc.variance >= 0.0


# ---------------------------------------------------------------------------
# Trace serialisation
# ---------------------------------------------------------------------------


@st.composite
def trace_entries(draw):
    count = draw(st.integers(min_value=0, max_value=25))
    times = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1e4),
                min_size=count,
                max_size=count,
            )
        )
    )
    entries = []
    for index, time in enumerate(times):
        entries.append(
            TraceEntry(
                time=time,
                class_name=draw(st.sampled_from(["a", "b", "c"])),
                client_id="cl{}".format(index),
                template=draw(st.sampled_from(["q1", "q2"])),
                kind=draw(st.sampled_from(["olap", "oltp"])),
                cpu_demand=draw(st.floats(min_value=0.0, max_value=100.0)),
                io_demand=draw(st.floats(min_value=0.0, max_value=100.0)),
                rounds=draw(st.integers(min_value=1, max_value=8)),
                parallelism=draw(st.integers(min_value=1, max_value=4)),
            )
        )
    return entries


@given(entries=trace_entries())
@settings(max_examples=50, deadline=None)
def test_trace_json_roundtrip_preserves_everything(entries):
    from repro.workloads.trace import WorkloadTrace

    trace = WorkloadTrace(entries)
    restored = WorkloadTrace.from_json(trace.to_json())
    assert restored.entries == trace.entries
    assert restored.duration == trace.duration
    assert restored.classes() == trace.classes()


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


@given(
    period_seconds=st.floats(min_value=0.1, max_value=1e3),
    counts=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=30),
    probe=st.floats(min_value=0.0, max_value=1e6),
)
@settings(max_examples=80, deadline=None)
def test_schedule_lookup_always_in_range(period_seconds, counts, probe):
    from repro.workloads.schedule import PeriodSchedule

    schedule = PeriodSchedule(period_seconds, {"x": counts})
    period = schedule.period_at(probe)
    assert 0 <= period < schedule.num_periods
    assert schedule.count_at("x", probe) == counts[period]


# ---------------------------------------------------------------------------
# In-engine gate conservation
# ---------------------------------------------------------------------------


@given(
    costs=st.lists(st.floats(min_value=10.0, max_value=5_000.0),
                   min_size=1, max_size=12),
    limit=st.floats(min_value=500.0, max_value=6_000.0),
)
@settings(max_examples=30, deadline=None)
def test_engine_gate_conserves_queries_and_accounting(costs, limit):
    from repro.config import default_config
    from repro.core.direct import DispatcherGate
    from repro.core.dispatcher import Dispatcher
    from repro.core.plan import SchedulingPlan
    from repro.core.service_class import ServiceClass, VelocityGoal
    from repro.dbms.engine import DatabaseEngine
    from repro.dbms.query import CPU, Query
    from repro.patroller.patroller import QueryPatroller
    from repro.sim.rng import RandomStreams

    sim = Simulator()
    config = default_config()
    engine = DatabaseEngine(sim, config, RandomStreams(7))
    patroller = QueryPatroller(sim, engine)
    gate_class = ServiceClass("g", "olap", VelocityGoal(0.5), 1)
    gate = Dispatcher(
        [gate_class],
        SchedulingPlan({"g": limit}, 1e9),
        release=engine.admit_released,
        clock=sim,
        gated=["g"],
    )
    patroller.subscribe("completed", gate.on_completion)
    engine.set_admission_gate(DispatcherGate(gate, sim))
    for index, cost in enumerate(costs):
        query = Query(
            query_id=index + 1,
            class_name="g",
            client_id="c{}".format(index),
            template="t",
            kind="olap",
            phases=((CPU, 0.1),),
            true_cost=cost,
            estimated_cost=cost,
        )
        query.submit_time = 0.0
        engine.execute(query)
    sim.run()
    # Every statement eventually ran (starvation guard included)...
    assert engine.completed_queries == len(costs)
    assert gate.class_accounting("g").released == len(costs)
    # ...and the accounting returned exactly to zero.
    assert gate.class_accounting("g").in_flight_cost == pytest.approx(0.0, abs=1e-6)
    assert gate.class_accounting("g").queue_length == 0


# ---------------------------------------------------------------------------
# Deficit allocator feasibility
# ---------------------------------------------------------------------------


@given(statuses=solver_inputs())
@settings(max_examples=40, deadline=None)
def test_deficit_allocator_always_feasible(statuses):
    from repro.core.heuristic import DeficitAllocator

    allocator = DeficitAllocator(system_cost_limit=30_000.0)
    plan = allocator.solve(statuses)
    assert plan.total_allocated <= 30_000.0 + 1e-6
    for status in statuses:
        assert plan.limit(status.service_class.name) >= 1_000.0 - 1e-9


# ---------------------------------------------------------------------------
# Dispatcher accounting conservation under cancellation
# ---------------------------------------------------------------------------


@given(
    specs=st.lists(
        st.tuples(
            st.floats(min_value=100.0, max_value=2_000.0),  # estimated cost
            st.floats(min_value=0.2, max_value=5.0),        # execution demand
            st.one_of(                                      # abandon time
                st.none(), st.floats(min_value=0.0, max_value=4.0)
            ),
        ),
        min_size=1,
        max_size=10,
    ),
    limit=st.floats(min_value=500.0, max_value=4_000.0),
    release_latency=st.sampled_from([0.0, 0.3]),
)
@settings(max_examples=25, deadline=None)
def test_dispatcher_accounting_survives_any_cancel_interleaving(
    specs, limit, release_latency
):
    """After any interleaving of release/complete/cancel the in-flight
    accounting returns exactly to zero and the release ledger balances
    (released == completed + cancelled)."""
    from repro.config import default_config
    from repro.dbms.engine import DatabaseEngine
    from repro.dbms.query import CPU, Query, QueryState
    from repro.patroller.patroller import QueryPatroller
    from repro.sim.rng import RandomStreams

    sim = Simulator()
    config = default_config()
    engine = DatabaseEngine(sim, config, RandomStreams(17))
    patroller = patroller_with(sim, engine, release_latency=release_latency)
    patroller.enable_for_class("c")
    service_class = ServiceClass("c", "olap", VelocityGoal(0.5), 1)
    dispatcher = patroller_dispatcher(
        patroller, [service_class], SchedulingPlan({"c": limit}, 1e9)
    )
    patroller.set_release_handler(dispatcher.enqueue)
    queries = []
    for index, (cost, demand, cancel_at) in enumerate(specs):
        query = Query(
            query_id=40_000 + index,
            class_name="c",
            client_id="p{}".format(index),
            template="t",
            kind="olap",
            phases=((CPU, demand),),
            true_cost=cost,
            estimated_cost=cost,
        )
        queries.append(query)
        patroller.submit(query)
        if cancel_at is not None:
            sim.schedule(cancel_at, lambda q=query: patroller.cancel(q))
    sim.run()
    # In-flight accounting returned exactly to zero...
    assert dispatcher.class_accounting("c").in_flight_count == 0
    assert dispatcher.class_accounting("c").in_flight_cost == 0.0
    assert dispatcher.class_accounting("c").queue_length == 0
    # ...the release ledger balances...
    assert dispatcher.class_accounting("c").released == (
        dispatcher.class_accounting("c").completed + dispatcher.class_accounting("c").cancelled
    )
    # ...and the dispatcher agrees with the engine about completions.
    completed = sum(1 for q in queries if q.state == QueryState.COMPLETED)
    assert engine.completed_queries == completed
    assert dispatcher.class_accounting("c").completed == completed
