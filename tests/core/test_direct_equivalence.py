"""The dispatcher behind ``DispatcherGate`` admits exactly as the old gate did.

``tests/core/reference_gate.py`` is the in-engine gate ``direct`` used to
carry (private queue, ``fits or alone``, FIFO).  The property drives it and
the shared :class:`~repro.core.dispatcher.Dispatcher` (gating every class,
releasing through ``engine.admit_released``) with the same random arrivals,
costs, completions and plan installs, each on its own simulator and engine,
and requires after every step the same admission order, the same release
and start time of every statement and the same ``queue_length`` /
``in_flight_cost`` / ``released_count`` per class.

Costs and limits are whole timerons, so in-flight sums are exact in floats
and equality can be exact: the one deliberate difference between the two —
``_ClassState.retire`` snaps an idle class to exactly 0.0 where the old gate
let rounding residue ride — cannot show.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import default_config
from repro.core.direct import DispatcherGate
from repro.core.dispatcher import Dispatcher
from repro.core.plan import SchedulingPlan
from repro.core.service_class import paper_classes
from repro.dbms.engine import DatabaseEngine
from repro.dbms.query import CPU, Phase, Query
from repro.patroller.patroller import QueryPatroller
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from tests.core.reference_gate import EngineGate

CLASSES = list(paper_classes())
NAMES = [c.name for c in CLASSES]
KINDS = {c.name: c.kind for c in CLASSES}

limits = st.fixed_dictionaries(
    {name: st.integers(min_value=1, max_value=40).map(lambda n: n * 100.0) for name in NAMES}
)
steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("arrive"),
            st.sampled_from(NAMES),
            st.integers(min_value=1, max_value=3_000).map(float),
            st.sampled_from([0.01, 0.05, 0.3, 1.0, 2.5]),
        ),
        st.tuples(st.just("advance"), st.sampled_from([0.01, 0.1, 0.5, 2.0, 10.0])),
        st.tuples(st.just("install"), limits),
    ),
    min_size=1,
    max_size=60,
)


def plan(class_limits):
    return SchedulingPlan(class_limits, 1e9)


class World:
    """One simulator + engine with a gate installed; records admissions."""

    def __init__(self, make_gate, initial_limits):
        self.sim = Simulator()
        config = default_config()
        self.engine = DatabaseEngine(self.sim, config, RandomStreams(5))
        patroller = QueryPatroller(self.sim, self.engine, config.patroller)
        self.gate = make_gate(self.sim, self.engine, patroller, plan(initial_limits))
        self.queries = []
        self.admitted = []
        acquire = self.engine.agents.acquire

        def recording_acquire(query, callback):
            self.admitted.append(query.query_id)
            acquire(query, callback)

        self.engine.agents.acquire = recording_acquire

    def apply(self, step):
        if step[0] == "arrive":
            _, name, cost, demand = step
            query = Query(
                query_id=len(self.queries) + 1,
                class_name=name,
                client_id="c",
                template="t",
                kind=KINDS[name],
                phases=(Phase(CPU, demand),),
                true_cost=cost,
                estimated_cost=cost,
            )
            query.submit_time = self.sim.now
            self.queries.append(query)
            self.engine.execute(query)
        elif step[0] == "advance":
            self.sim.run_until(self.sim.now + step[1])
        else:
            self.gate.install_plan(plan(step[1]))

    def facts(self):
        return {
            "admitted": list(self.admitted),
            "times": [(q.release_time, q.start_time, q.finish_time) for q in self.queries],
            "classes": {name: self.class_facts(name) for name in NAMES},
        }

    def class_facts(self, name):
        # The reference gate keeps its own per-field accessors; the
        # dispatcher is read through its one accounting row.
        if isinstance(self.gate, Dispatcher):
            row = self.gate.class_accounting(name)
            return (row.queue_length, row.in_flight_cost, row.released)
        return (
            self.gate.queue_length(name),
            self.gate.in_flight_cost(name),
            self.gate.released_count(name),
        )


def reference_gate(sim, engine, patroller, initial_plan):
    return EngineGate(engine, patroller, CLASSES, initial_plan)


def dispatcher_gate(sim, engine, patroller, initial_plan):
    dispatcher = Dispatcher(
        CLASSES,
        initial_plan,
        release=engine.admit_released,
        clock=sim,
        gated=NAMES,
    )
    patroller.subscribe("completed", dispatcher.on_completion)
    engine.set_admission_gate(DispatcherGate(dispatcher, sim))
    return dispatcher


@given(initial=limits, script=steps)
@settings(max_examples=150, deadline=None)
def test_dispatcher_behind_the_adapter_equals_the_reference_gate(initial, script):
    reference = World(reference_gate, initial)
    candidate = World(dispatcher_gate, initial)
    for step in script:
        reference.apply(step)
        candidate.apply(step)
        assert candidate.facts() == reference.facts(), step
    # Drain: everything queued is eventually admitted, in the same order.
    for world in (reference, candidate):
        world.sim.run()
    assert candidate.facts() == reference.facts()
    assert len(candidate.admitted) == len(candidate.queries)


def test_reference_gate_is_fifo():
    """The reference carries the FIFO fix: a fitting arrival queues behind
    an older statement of its class."""
    world = World(reference_gate, {name: 2_000.0 for name in NAMES})
    world.apply(("arrive", "class1", 400.0, 1.0))
    world.apply(("arrive", "class1", 1_800.0, 1.0))
    world.apply(("arrive", "class1", 400.0, 1.0))
    assert world.admitted == [1]
    world.sim.run()
    assert world.admitted == [1, 2, 3]
