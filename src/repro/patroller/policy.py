"""Query Patroller's own (static) control policy.

Section 4.2.2: "Using the typical query control strategy of DB2 QP, the OLAP
queries are partitioned into three groups (large, medium and small) based on
the cost of the queries.  Queries whose cost is in the top 5% of the workload
are placed in the large group; queries whose cost is in the next 15% are
placed in the medium group and the remaining queries are placed in the small
query group."  Each group caps how many of its queries may run concurrently;
an optional global cost limit caps the total estimated cost in flight; and
submitter *priorities* order the waiting queue (Class 2 above Class 1 in the
paper's "priority control on" run).

Everything here is static: thresholds, group slots and priorities never react
to workload changes — which is exactly the weakness the Query Scheduler's
dynamic re-planning is shown to beat (Figures 5 vs 6).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dbms.query import Query, QueryState
from repro.errors import ConfigurationError
from repro.patroller.patroller import QueryPatroller


@dataclass(frozen=True)
class CostGroup:
    """A QP query class: cost band ``(low, high]`` with a concurrency cap."""

    name: str
    low_cost: float
    high_cost: float
    max_concurrent: int

    def contains(self, cost: float) -> bool:
        """Whether a query of this estimated cost falls in the band."""
        return self.low_cost < cost <= self.high_cost

    def validate(self) -> None:
        if self.high_cost <= self.low_cost:
            raise ConfigurationError(
                "cost group {!r} has empty band [{}, {}]".format(
                    self.name, self.low_cost, self.high_cost
                )
            )
        if self.max_concurrent < 1:
            raise ConfigurationError(
                "cost group {!r} needs max_concurrent >= 1".format(self.name)
            )


def percentile_thresholds(
    costs: Sequence[float],
    large_fraction: float = 0.05,
    medium_fraction: float = 0.15,
) -> Tuple[float, float]:
    """Cost thresholds splitting a historical workload into QP's groups.

    Returns ``(small_upper, medium_upper)``: queries above ``medium_upper``
    are *large* (top ``large_fraction`` of the workload), queries in
    ``(small_upper, medium_upper]`` are *medium* (next ``medium_fraction``),
    and the rest are *small* — the 5%/15%/80% split of Section 4.2.2.
    """
    if not costs:
        raise ConfigurationError("percentile_thresholds needs historical costs")
    if large_fraction <= 0 or medium_fraction <= 0:
        raise ConfigurationError("group fractions must be positive")
    if large_fraction + medium_fraction >= 1:
        raise ConfigurationError("large + medium fractions must be < 1")
    arr = np.asarray(costs, dtype=float)
    medium_upper = float(np.quantile(arr, 1.0 - large_fraction))
    small_upper = float(np.quantile(arr, 1.0 - large_fraction - medium_fraction))
    return small_upper, medium_upper


def standard_groups(
    costs: Sequence[float],
    small_slots: int = 10,
    medium_slots: int = 3,
    large_slots: int = 1,
) -> List[CostGroup]:
    """Build the large/medium/small groups from a historical cost sample."""
    small_upper, medium_upper = percentile_thresholds(costs)
    return [
        CostGroup("small", 0.0, small_upper, small_slots),
        CostGroup("medium", small_upper, medium_upper, medium_slots),
        CostGroup("large", medium_upper, float("inf"), large_slots),
    ]


class QPStaticPolicy:
    """Static release policy: cost groups + priorities + global cost limit.

    Parameters
    ----------
    patroller:
        The interception layer; :meth:`start` installs this policy as its
        release handler.
    groups:
        Cost groups; pass an empty list for a single unlimited group (the
        paper's *no class control* baseline then reduces to the global cost
        limit alone).
    priorities:
        ``class_name -> priority`` (higher releases first).  Classes absent
        from the map get priority 0.  Pass ``None`` (or ``{}``) for the
        "priority control off" run.
    global_cost_limit:
        Cap on total estimated cost executing, across all intercepted
        classes; ``None`` disables it.
    max_query_cost:
        QP's hard rejection threshold: an intercepted query whose estimated
        cost exceeds this is *refused* (never queued, never run); ``None``
        disables rejection.
    name, description:
        The controller identity reports print (:meth:`describe`); the
        ``none`` / ``qp`` / ``qp_nopriority`` entries of
        :data:`repro.core.controllers.CONTROLLERS` each supply their own.
    """

    def __init__(
        self,
        patroller: QueryPatroller,
        groups: Optional[Sequence[CostGroup]] = None,
        priorities: Optional[Dict[str, int]] = None,
        global_cost_limit: Optional[float] = None,
        max_query_cost: Optional[float] = None,
        name: str = "qp_static",
        description: str = "QP static policy (cost groups, priorities, cost limit)",
    ) -> None:
        if max_query_cost is not None and max_query_cost <= 0:
            raise ConfigurationError("max_query_cost must be positive (or None)")
        if global_cost_limit is not None and global_cost_limit <= 0:
            raise ConfigurationError("global_cost_limit must be positive (or None)")
        self.name = name
        self.description = description
        self.patroller = patroller
        self.groups: List[CostGroup] = list(groups or [])
        for group in self.groups:
            group.validate()
        self.priorities = dict(priorities or {})
        self.global_cost_limit = global_cost_limit
        self.max_query_cost = max_query_cost
        self._rejected = 0
        self._queue: List[Tuple[int, int, Query]] = []  # (-priority, seq, query)
        self._seq = 0
        self._in_flight_cost = 0.0
        self._in_flight_by_group: Dict[str, int] = {g.name: 0 for g in self.groups}
        self._group_of_query: Dict[int, Optional[str]] = {}
        self._released = 0

    def start(self) -> None:
        """Become the patroller's release handler and start observing."""
        self.patroller.set_release_handler(self.on_intercepted)
        self.patroller.subscribe("completed", self.on_completed)
        # A statement cancelled inside the release-latency window never
        # reaches the engine, so no completion would free what it holds.
        self.patroller.subscribe("cancelled", self.on_completed)

    def describe(self) -> str:
        """One-line description for reports."""
        return self.description

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def queued(self) -> int:
        """Queries waiting for release."""
        return len(self._queue)

    @property
    def released(self) -> int:
        """Total queries this policy has released."""
        return self._released

    @property
    def in_flight_cost(self) -> float:
        """Estimated cost of policy-released queries still executing."""
        return self._in_flight_cost

    def group_for(self, cost: float) -> Optional[CostGroup]:
        """The cost group a query of this estimated cost belongs to."""
        for group in self.groups:
            if group.contains(cost):
                return group
        return None

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    @property
    def rejected(self) -> int:
        """Total queries refused by the max-cost threshold."""
        return self._rejected

    def on_intercepted(self, query: Query) -> None:
        """Release-handler hook: reject over-threshold, else enqueue."""
        if (
            self.max_query_cost is not None
            and query.estimated_cost > self.max_query_cost
        ):
            self._rejected += 1
            self.patroller.reject(query)
            return
        priority = self.priorities.get(query.class_name, 0)
        query.priority = priority
        heapq.heappush(self._queue, (-priority, self._seq, query))
        self._seq += 1
        self.try_release()

    def on_completed(self, query: Query) -> None:
        """Completion / cancel hook: free the query's slots, release more."""
        if query.query_id not in self._group_of_query:
            return  # bypassed QP (e.g. the OLTP class) or cancelled in the queue
        group_name = self._group_of_query.pop(query.query_id)
        self._in_flight_cost -= query.estimated_cost
        if self._in_flight_cost < 0:
            self._in_flight_cost = 0.0
        if group_name is not None:
            self._in_flight_by_group[group_name] -= 1
        self.try_release()

    # ------------------------------------------------------------------
    # Release logic
    # ------------------------------------------------------------------
    def _eligible(self, query: Query) -> bool:
        group = self.group_for(query.estimated_cost)
        if group is not None:
            if self._in_flight_by_group[group.name] >= group.max_concurrent:
                return False
        if self.global_cost_limit is not None:
            over = self._in_flight_cost + query.estimated_cost > self.global_cost_limit
            # Starvation guard: a query costlier than the whole limit may
            # run alone rather than wait forever.
            if over and self._in_flight_cost > 0:
                return False
            if over and query.estimated_cost <= self.global_cost_limit:
                return False
        return True

    def try_release(self) -> int:
        """Release every currently eligible query, best priority first.

        Queries whose group or the global limit is full are skipped (no
        head-of-line blocking across groups), preserving priority order
        among the eligible.  Returns the number of queries released.
        """
        released = 0
        skipped: List[Tuple[int, int, Query]] = []
        while self._queue:
            entry = heapq.heappop(self._queue)
            query = entry[2]
            if query.state == QueryState.CANCELLED:
                continue  # abandoned while waiting; drop
            if not self._eligible(query):
                skipped.append(entry)
                continue
            group = self.group_for(query.estimated_cost)
            group_name = group.name if group is not None else None
            self._group_of_query[query.query_id] = group_name
            self._in_flight_cost += query.estimated_cost
            if group_name is not None:
                self._in_flight_by_group[group_name] += 1
            self._released += 1
            self.patroller.release(query)
            released += 1
        for entry in skipped:
            heapq.heappush(self._queue, entry)
        return released
