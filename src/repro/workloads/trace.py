"""Workload traces: record a run's arrivals, replay them later.

A :class:`TraceRecorder` hooks the Query Patroller's submit path and
captures ``(time, class, template, demands)`` for every statement.  The
resulting :class:`WorkloadTrace` can be saved/loaded as JSON and replayed
against any controller configuration via :class:`TraceReplayer` — the
standard way to compare policies on *identical* offered load, removing
closed-loop feedback effects from the comparison.
"""

from __future__ import annotations

import json
from typing import List, NamedTuple, Optional

from repro.dbms.query import CPU, IO, Query, make_phases
from repro.errors import WorkloadError
from repro.metrics.export import open_export
from repro.patroller.patroller import QueryPatroller
from repro.runtime import TimerService
from repro.workloads.spec import QueryFactory


class TraceEntry(NamedTuple):
    """One recorded statement arrival."""

    time: float
    class_name: str
    client_id: str
    template: str
    kind: str
    cpu_demand: float
    io_demand: float
    rounds: int
    parallelism: int


class WorkloadTrace:
    """An ordered list of statement arrivals."""

    def __init__(self, entries: Optional[List[TraceEntry]] = None) -> None:
        self.entries: List[TraceEntry] = list(entries or [])

    def __len__(self) -> int:
        return len(self.entries)

    def append(self, entry: TraceEntry) -> None:
        """Add one arrival (must be time-ordered)."""
        if self.entries and entry.time < self.entries[-1].time:
            raise WorkloadError("trace entries must be appended in time order")
        self.entries.append(entry)

    @property
    def duration(self) -> float:
        """Time of the last arrival (0 for an empty trace)."""
        return self.entries[-1].time if self.entries else 0.0

    def classes(self) -> List[str]:
        """Distinct class names appearing in the trace."""
        return sorted({e.class_name for e in self.entries})

    # ------------------------------------------------------------------
    # (De)serialisation
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialise to a JSON string."""
        return json.dumps([e._asdict() for e in self.entries])

    @classmethod
    def from_json(cls, text: str) -> "WorkloadTrace":
        """Parse a trace from :meth:`to_json` output."""
        raw = json.loads(text)
        return cls([TraceEntry(**entry) for entry in raw])

    def save(self, path: str) -> None:
        """Write the trace to a file."""
        with open_export(path, overwrite=True) as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "WorkloadTrace":
        """Read a trace from a file."""
        with open(path) as handle:
            return cls.from_json(handle.read())


class TraceRecorder:
    """Captures every submitted statement into a :class:`WorkloadTrace`."""

    def __init__(self, sim: TimerService, patroller: QueryPatroller) -> None:
        self.sim = sim
        self.trace = WorkloadTrace()
        patroller.subscribe("submitted", self._on_submit)

    def _on_submit(self, query: Query) -> None:
        # make_phases gives each kind with demand one phase a round, so the
        # round count is the larger of the two phase counts (the overhead
        # phase is prepended at interception, after ``submitted`` fires).
        kinds = [kind for kind, _ in query.phases]
        self.trace.append(
            TraceEntry(
                time=self.sim.now,
                class_name=query.class_name,
                client_id=query.client_id,
                template=query.template,
                kind=query.kind,
                cpu_demand=query.cpu_demand,
                io_demand=query.io_demand,
                rounds=max(kinds.count(CPU), kinds.count(IO)),
                parallelism=query.parallelism,
            )
        )


class TraceReplayer:
    """Replays a trace open-loop against a (possibly different) system.

    Demands are taken verbatim from the trace; costs are re-estimated by
    the *target* system's optimizer, so replaying under a different noise
    setting answers "what would this exact workload have done here".
    """

    def __init__(
        self,
        sim: TimerService,
        patroller: QueryPatroller,
        factory: QueryFactory,
        trace: WorkloadTrace,
        time_scale: float = 1.0,
    ) -> None:
        if time_scale <= 0:
            raise WorkloadError("time_scale must be positive")
        self.sim = sim
        self.patroller = patroller
        self.factory = factory
        self.trace = trace
        self.time_scale = time_scale
        self.replayed = 0
        self._started = False

    def start(self) -> None:
        """Schedule every trace arrival (scaled) from the current instant."""
        if self._started:
            raise WorkloadError("TraceReplayer started twice")
        self._started = True
        origin = self.sim.now
        for entry in self.trace.entries:
            self.sim.schedule_at(
                origin + entry.time * self.time_scale,
                lambda e=entry: self._replay_one(e),
                label="replay:{}".format(entry.class_name),
            )

    def _replay_one(self, entry: TraceEntry) -> None:
        estimator = self.factory.estimator
        query = Query(
            query_id=self.factory.allocate_id(),
            class_name=entry.class_name,
            client_id=entry.client_id,
            template=entry.template,
            kind=entry.kind,
            phases=make_phases(entry.cpu_demand, entry.io_demand, entry.rounds),
            true_cost=estimator.true_cost(entry.cpu_demand, entry.io_demand),
            estimated_cost=estimator.estimate(entry.cpu_demand, entry.io_demand),
        )
        query.parallelism = entry.parallelism
        self.replayed += 1
        self.patroller.submit(query)
