"""MPL-based admission control (extension baseline).

The paper contrasts its cost-based control with Schroeder et al.'s
multiprogramming-level (MPL) approach ("A similar framework by Schroeder et
al controls OLTP workloads based on multiprogramming levels (MPL) by
intercepting queries and performing admission control", Section 1, ref [5]).
This module implements that alternative on the same substrate so the two can
be compared head-to-head (``benchmarks/bench_extension_mpl.py``):

* each directly controlled class has an MPL — a cap on its *number* of
  concurrently executing queries, cost-blind;
* a feedback loop adapts the MPLs additively-increase / multiplicatively-
  decrease style: when the (indirectly controlled) OLTP class violates its
  goal, every OLAP MPL is cut; when all goals are met, MPLs creep back up.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.core.service_class import ServiceClass
from repro.dbms.query import Query, QueryState
from repro.errors import ConfigurationError, SchedulingError
from repro.patroller.patroller import QueryPatroller
from repro.runtime import ExecutionEngine, TimerService

#: Every controlled class's MPL at start, and the bounds the loop keeps it in.
INITIAL_MPL = 4
MIN_MPL = 1
MAX_MPL = 64
#: The multiplicative cut applied to every OLAP MPL while OLTP violates.
DECREASE_FACTOR = 0.5
#: How far back (seconds) the OLTP response-time average reaches.
SNAPSHOT_STALENESS = 30.0


class MPLController:
    """Per-class MPL admission control with AIMD adaptation."""

    name = "mpl"

    def __init__(
        self,
        sim: TimerService,
        patroller: QueryPatroller,
        engine: ExecutionEngine,
        classes: List[ServiceClass],
        control_interval: float = 60.0,
    ) -> None:
        if control_interval <= 0:
            raise ConfigurationError("control_interval must be positive")
        self.sim = sim
        self.patroller = patroller
        self.engine = engine
        self.classes = list(classes)
        self.control_interval = control_interval
        self.mpl: Dict[str, int] = {
            c.name: INITIAL_MPL for c in self.classes if c.directly_controlled
        }
        self._queues: Dict[str, Deque[Query]] = {name: deque() for name in self.mpl}
        self._executing: Dict[str, int] = {name: 0 for name in self.mpl}
        self._oltp_class: Optional[ServiceClass] = next(
            (c for c in self.classes if c.kind == "oltp"), None
        )
        self._started = False
        self.adjustments = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Install handlers and begin the adaptation loop."""
        if self._started:
            raise SchedulingError("MPLController started twice")
        self._started = True
        self.patroller.intercept_only(self.mpl)  # keyed by the controlled classes
        self.patroller.set_release_handler(self._on_intercepted)
        self.patroller.subscribe("completed", self._on_completed, self.mpl)
        self.patroller.subscribe("cancelled", self._on_cancelled, self.mpl)
        self.sim.schedule(self.control_interval, self._tick, label="mpl:tick")

    def describe(self) -> str:
        """One-line description for reports."""
        return "MPL admission control (AIMD, interval {:.0f}s)".format(
            self.control_interval
        )

    # ------------------------------------------------------------------
    # Admission path
    # ------------------------------------------------------------------
    def _on_intercepted(self, query: Query) -> None:
        queue = self._queues.get(query.class_name)
        if queue is None:
            raise SchedulingError(
                "MPL controller got query of unmanaged class {!r}".format(
                    query.class_name
                )
            )
        queue.append(query)
        self._release_eligible(query.class_name)

    def _on_completed(self, query: Query) -> None:
        if query.class_name not in self._executing:
            return
        if self._executing[query.class_name] > 0:
            self._executing[query.class_name] -= 1
        self._release_eligible(query.class_name)

    def _on_cancelled(self, query: Query) -> None:
        """Patroller cancel hook.

        A query cancelled after release (inside the release-latency window)
        never reaches the engine, so no completion will free its MPL slot —
        free it here.  One cancelled in its class queue holds no slot and
        is dropped when the queue reaches it.
        """
        if query.release_time is not None:
            self._on_completed(query)

    def _release_eligible(self, class_name: str) -> int:
        queue = self._queues[class_name]
        released = 0
        while queue and self._executing[class_name] < self.mpl[class_name]:
            query = queue.popleft()
            if query.state == QueryState.CANCELLED:
                continue  # abandoned while waiting; drop
            self._executing[class_name] += 1
            self.patroller.release(query)
            released += 1
        return released

    # ------------------------------------------------------------------
    # Adaptation loop
    # ------------------------------------------------------------------
    def _oltp_violating(self) -> Optional[bool]:
        if self._oltp_class is None:
            return None
        average = self.engine.snapshot_monitor.average_response_time(
            class_name=self._oltp_class.name,
            since=self.sim.now - SNAPSHOT_STALENESS,
        )
        if average is None:
            return None
        return not self._oltp_class.goal.satisfied(average)

    def _tick(self) -> None:
        violating = self._oltp_violating()
        if violating is True:
            for name in self.mpl:
                self.mpl[name] = max(MIN_MPL, int(self.mpl[name] * DECREASE_FACTOR))
            self.adjustments += 1
        elif violating is False:
            for name in self.mpl:
                self.mpl[name] = min(MAX_MPL, self.mpl[name] + 1)
                self._release_eligible(name)
            self.adjustments += 1
        self.sim.schedule(self.control_interval, self._tick, label="mpl:tick")
