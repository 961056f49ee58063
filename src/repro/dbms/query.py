"""Query objects and their lifecycle.

A :class:`Query` is one SQL statement as seen by the control framework: it
carries its true resource demands (what execution will actually consume), the
optimizer's timeron estimate (what scheduling decisions are based on), and
the timestamps from which the paper's two performance metrics derive:

* ``response_time  = finish_time - submit_time`` — client-perceived latency,
  including any time held by the workload adaptation mechanism;
* ``execution_time = finish_time - release_time`` — time actually running in
  the DBMS;
* ``velocity = execution_time / response_time`` ∈ (0, 1] — the paper's OLAP
  goal metric (Section 3.1).
"""

from __future__ import annotations

import enum
from math import inf
from typing import Optional, Tuple

from repro.errors import SimulationError
from repro.sim.stats import sequential_sum

#: Resource kinds a phase can execute on.
CPU = "cpu"
IO = "io"

#: One stage of query execution on a single resource pool: a plain
#: ``(kind, demand)`` pair — CPU or IO, seconds-at-full-speed.
Phase = Tuple[str, float]


class QueryState(enum.Enum):
    """Lifecycle of a query through interception, queueing and execution."""

    CREATED = "created"
    QUEUED = "queued"  # intercepted by Query Patroller, agent blocked
    RELEASED = "released"  # unblocked, admitted to the engine
    EXECUTING = "executing"
    COMPLETED = "completed"
    CANCELLED = "cancelled"  # abandoned while still queued (never ran)


# The members as module names, compared with ``is``: on CPython 3.11 a global
# read costs a tenth of a read through the enum class (six per statement).
CREATED = QueryState.CREATED
QUEUED = QueryState.QUEUED
RELEASED = QueryState.RELEASED
EXECUTING = QueryState.EXECUTING
COMPLETED = QueryState.COMPLETED
CANCELLED = QueryState.CANCELLED


class Query:
    """One statement flowing through the system.

    Parameters
    ----------
    query_id:
        Unique monotonically increasing id.
    class_name:
        Service class this query belongs to (e.g. ``"class1"``).
    client_id:
        Submitting client connection (used by the snapshot monitor).
    template:
        Name of the workload template that generated the query.
    kind:
        ``"olap"`` or ``"oltp"``; drives metric selection upstream.
    phases:
        Ordered CPU/IO stages with true demands.
    true_cost:
        Exact timeron cost (what execution consumes against the overload
        model).
    estimated_cost:
        The optimizer's (possibly noisy) timeron estimate — the number every
        scheduling decision sees.
    """

    __slots__ = (
        "query_id",
        "class_name",
        "client_id",
        "template",
        "kind",
        "phases",
        "true_cost",
        "estimated_cost",
        "state",
        "submit_time",
        "intercept_time",
        "queue_time",
        "release_time",
        "start_time",
        "finish_time",
        "priority",
        "on_complete",
        "parallelism",
        "phase_index",
    )

    def __init__(
        self,
        query_id: int,
        class_name: str,
        client_id: str,
        template: str,
        kind: str,
        phases: Tuple[Phase, ...],
        true_cost: float,
        estimated_cost: float,
    ) -> None:
        if not phases:
            raise SimulationError("query {} has no phases".format(query_id))
        self.query_id = query_id
        self.class_name = class_name
        self.client_id = client_id
        self.template = template
        self.kind = kind
        self.phases: Tuple[Phase, ...] = tuple(phases)
        self.true_cost = float(true_cost)
        self.estimated_cost = float(estimated_cost)
        self.state = CREATED
        self.submit_time: Optional[float] = None
        self.intercept_time: Optional[float] = None
        self.queue_time: Optional[float] = None
        self.release_time: Optional[float] = None
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self.priority = 0
        #: Optional per-query completion callback (set by the submitting
        #: client); fired by the engine before its global listeners.
        self.on_complete = None
        #: Intra-query degree of parallelism (sub-jobs per phase).
        self.parallelism = 1
        #: Index into ``phases`` of the next one the engine will dispatch.
        self.phase_index = 0

    # ------------------------------------------------------------------
    # Demand decomposition
    # ------------------------------------------------------------------
    @property
    def cpu_demand(self) -> float:
        """Total CPU seconds-at-full-speed across phases (left fold)."""
        return sequential_sum(demand for kind, demand in self.phases if kind == CPU)

    @property
    def io_demand(self) -> float:
        """Total IO seconds-at-full-speed across phases (left fold)."""
        return sequential_sum(demand for kind, demand in self.phases if kind == IO)

    @property
    def phases_remaining(self) -> int:
        """Number of phases not yet dispatched to a resource pool."""
        return len(self.phases) - self.phase_index

    # ------------------------------------------------------------------
    # Metrics (valid once COMPLETED)
    # ------------------------------------------------------------------
    @property
    def response_time(self) -> float:
        """Client-perceived latency, including scheduler hold time."""
        if self.finish_time is None or self.submit_time is None:
            raise SimulationError(
                "query {} response_time read before completion".format(self.query_id)
            )
        return self.finish_time - self.submit_time

    @property
    def execution_time(self) -> float:
        """Time spent running inside the DBMS (release to finish)."""
        if self.finish_time is None:
            raise SimulationError(
                "query {} execution_time read before completion".format(self.query_id)
            )
        released = self.release_time if self.release_time is not None else self.submit_time
        if released is None:
            raise SimulationError(
                "query {} was never submitted".format(self.query_id)
            )
        return self.finish_time - released

    @property
    def velocity(self) -> float:
        """``execution_time / response_time`` ∈ (0, 1] (Section 3.1)."""
        response = self.response_time
        if response <= 0:
            return 1.0
        return min(1.0, self.execution_time / response)

    @property
    def wait_time(self) -> float:
        """Time held by the adaptation mechanism before release."""
        return self.response_time - self.execution_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Query(#{}, {}, {}, cost={:.0f}, {})".format(
            self.query_id,
            self.class_name,
            self.template,
            self.estimated_cost,
            self.state.value,
        )


def make_phases(
    cpu_demand: float, io_demand: float, rounds: int
) -> Tuple[Phase, ...]:
    """Split total CPU/IO demand into ``rounds`` alternating CPU→IO phases.

    A round with zero demand on one side omits that phase, so OLTP queries
    (1 round) become a CPU phase followed by an IO phase, while OLAP queries
    interleave several CPU bursts with IO scans — which is what couples their
    CPU consumption to OLTP contention throughout their run rather than in
    one lump.
    """
    if rounds < 1:
        raise SimulationError("make_phases needs rounds >= 1")
    # Chained comparisons, not math.isfinite: this runs once per statement.
    # NaN fails both, so it cannot drop a phase or empty a statement.
    if not (0.0 <= cpu_demand < inf and 0.0 <= io_demand < inf):
        raise SimulationError(
            "demands must be finite and non-negative (cpu {!r}, io {!r})".format(
                cpu_demand, io_demand
            )
        )
    cpu_slice = cpu_demand / rounds
    io_slice = io_demand / rounds
    one_round: Tuple[Phase, ...] = ()
    if cpu_slice > 0:
        one_round = ((CPU, cpu_slice),)
    if io_slice > 0:
        one_round += ((IO, io_slice),)
    # Degenerate zero-demand query: keep one empty CPU phase so the
    # lifecycle still transits the engine.
    return one_round * rounds or ((CPU, 0.0),)
