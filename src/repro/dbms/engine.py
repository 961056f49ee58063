"""The execution-engine contract and the simulated database engine.

:class:`ExecutionEngine` is the query-execution surface the control stack
programs against (Monitor, Patroller, MPL/Direct controllers, validation
harness), written once.  It owns everything around a statement's run:
the agent pool, the snapshot monitor, the cost estimator, the executing
set and completion count, the one completion hook and the in-engine
admission gate.  A subclass adds only how an admitted statement runs:

* ``_start(query)`` — called when the statement gets an agent; it must
  eventually call ``_finish(query)`` on the control-plane thread;
* optionally its own ``_finish`` (the simulator's retires overload cost
  before anyone is told of the completion);
* optionally ``close`` to release OS resources.

:class:`DatabaseEngine` executes queries phase by phase on two
processor-sharing pools (CPU and disks) under the overload model;
:class:`~repro.runtime.sqlite_engine.SQLiteEngine` runs real SQL on
worker threads.

Execution timing: a query's ``start_time`` is when it gets an agent and its
first phase enters service; ``finish_time`` is when its last phase leaves
service.  Contention stretches phases through the PS pools and the overload
efficiency factor — no latency is ever synthesised outside the resource
model.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.config import SimulationConfig
from repro.dbms.agent import AgentPool
from repro.dbms.optimizer import CostEstimator
from repro.dbms.overload import OverloadModel
from repro.dbms.query import CPU, IO, Query, QueryState
from repro.dbms.snapshot import SnapshotMonitor
from repro.errors import SimulationError
from repro.runtime.protocols import AdmissionGate, TimerService
from repro.sim.resources import ProcessorSharingResource
from repro.sim.rng import RandomStreams


class ExecutionEngine:
    """The query-execution contract shared by every engine.

    Subclasses implement ``_start``; everything the control stack calls
    lives here.  Completions reach observers through the one completion
    hook (the Query Patroller's), never through the engine directly.
    """

    #: DB2-snapshot-style per-connection last-statement sampling substrate.
    snapshot_monitor: SnapshotMonitor

    def __init__(
        self,
        sim: TimerService,
        config: SimulationConfig,
        rng: RandomStreams,
    ) -> None:
        config.validate()
        self.sim = sim
        self.config = config
        self.rng = rng
        self.agents = AgentPool(config.agents)
        self.snapshot_monitor = SnapshotMonitor()
        self.estimator = CostEstimator(config.optimizer, rng)
        self._completion_hook: Optional[Callable[[Query], None]] = None
        self._executing: Dict[int, Query] = {}
        self._completed = 0
        self._admission_gate: Optional[AdmissionGate] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def executing_queries(self) -> int:
        """Statements currently holding an agent and consuming resources."""
        return len(self._executing)

    @property
    def completed_queries(self) -> int:
        """Total statements completed since the start of the run."""
        return self._completed

    def executing_snapshot(self) -> List[Query]:
        """The statements currently executing (a copy).

        Read-only view for the validation harness, which checks the
        engine's running set against the dispatcher's in-flight accounting.
        """
        return list(self._executing.values())

    def executing_cost(self, class_name: Optional[str] = None) -> float:
        """Summed *estimated* cost of executing statements (optionally of
        one class) — the quantity cost-limit policies reason about."""
        total = 0.0
        for query in self._executing.values():
            if class_name is None or query.class_name == class_name:
                total += query.estimated_cost
        return total

    def set_completion_hook(self, hook: Callable[[Query], None]) -> None:
        """Install the one callback told of each finished statement;
        observers subscribe to the patroller's ``completed`` event."""
        self._completion_hook = hook

    def set_admission_gate(self, gate: Optional[AdmissionGate]) -> None:
        """Install an in-engine admission gate (None to remove).

        This is the hook for the paper's future-work direction of
        implementing workload control *inside* the DBMS (Section 5): unlike
        Query Patroller interception, the gate sees every statement —
        including sub-second OLTP — with zero added latency or CPU.
        """
        self._admission_gate = gate

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, query: Query) -> None:
        """Admit ``query`` for execution (possibly waiting for an agent)."""
        if query.state in (QueryState.EXECUTING, QueryState.COMPLETED):
            raise SimulationError(
                "query {} executed twice".format(query.query_id)
            )
        if self._admission_gate is not None and not self._admission_gate.admit(query):
            # The gate took ownership; it calls admit_released() later.
            return
        if query.release_time is None:
            query.release_time = self.sim.now
        self.agents.acquire(query, self._start)

    def admit_released(self, query: Query) -> None:
        """Admit a statement previously held by the admission gate."""
        if query.release_time is None:
            query.release_time = self.sim.now
        self.agents.acquire(query, self._start)

    def _start(self, query: Query) -> None:
        """Run an admitted statement; call ``_finish`` when it is done."""
        raise NotImplementedError

    def _finish(self, query: Query) -> None:
        query.state = QueryState.COMPLETED
        query.finish_time = self.sim.now
        del self._executing[query.query_id]
        self._completed += 1
        self.snapshot_monitor.record_completion(query)
        self.agents.release()
        if query.on_complete is not None:
            query.on_complete(query)
        if self._completion_hook is not None:
            self._completion_hook(query)

    def close(self) -> None:
        """Release OS resources (threads, files).  Idempotent."""


class DatabaseEngine(ExecutionEngine):
    """DB2-like execution engine over simulated hardware."""

    def __init__(
        self,
        sim: TimerService,
        config: SimulationConfig,
        rng: RandomStreams,
    ) -> None:
        super().__init__(sim, config, rng)
        resources = config.resources
        self.cpu = ProcessorSharingResource(
            sim, "cpu", resources.cpu_servers, resources.cpu_speed
        )
        self.disk = ProcessorSharingResource(
            sim, "disk", resources.disk_servers, resources.disk_speed
        )
        self._pools: Dict[str, ProcessorSharingResource] = {CPU: self.cpu, IO: self.disk}
        self.overload = OverloadModel(config.overload, [self.cpu, self.disk])

    def _start(self, query: Query) -> None:
        query.state = QueryState.EXECUTING
        query.start_time = self.sim.now
        self._executing[query.query_id] = query
        self.overload.admit(query.true_cost)
        self._next_phase(query)

    def _sub_done(self, barrier: list) -> None:
        """Completion callback of one sub-job of a parallel phase."""
        barrier[1] -= 1
        if barrier[1] == 0:
            self._next_phase(barrier[0])

    def _next_phase(self, query: Query) -> None:
        # Also the completion callback of every single-job phase: the pool
        # hands back the job's `owner`, so nothing on this path closes over
        # the query and no reference cycle is left for the cyclic collector.
        index = query.phase_index
        phases = query.phases
        if index == len(phases):
            self._finish(query)
            return
        query.phase_index = index + 1
        kind, demand = phases[index]
        pool = self._pools[kind]
        if query.parallelism < 2:
            pool.submit(demand, self._next_phase, query)
            return
        # Intra-query parallelism: the phase fans out into `degree`
        # sub-jobs and the next phase starts when the last one finishes.
        degree = int(query.parallelism)
        barrier = [query, degree]
        share = demand / degree
        for _ in range(degree):
            pool.submit(share, self._sub_done, barrier)

    def _finish(self, query: Query) -> None:
        # The shared tail plus the overload retire, inlined: the retire
        # must precede on_complete and the hook, because the client's next
        # submission re-prices the pools.
        query.state = QueryState.COMPLETED
        query.finish_time = self.sim.now
        del self._executing[query.query_id]
        self.overload.retire(query.true_cost)
        self._completed += 1
        self.snapshot_monitor.record_completion(query)
        self.agents.release()
        if query.on_complete is not None:
            query.on_complete(query)
        if self._completion_hook is not None:
            self._completion_hook(query)
