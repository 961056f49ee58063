"""DB2 snapshot monitor.

Section 3.3: "The DB2 UDB snapshot monitor records the execution time of the
most recently finished query for a client.  We, therefore, can take snapshots
at fixed intervals ... to get samples of response times of OLTP queries from
all the clients and average them."

The substrate keeps, per client connection, the most recently completed
statement's timing; :meth:`SnapshotMonitor.snapshot` returns those samples so
the Monitor layer can average them.  A sample is returned at most once per
completion only if the caller asks for fresh samples — matching the real
monitor, repeated snapshots between completions re-read the same last
statement, which is why the sampling interval must not be too large
(staleness) nor too small (overhead).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from repro.dbms.query import Query
from repro.sim.stats import sequential_sum


class SnapshotSample(NamedTuple):
    """Timing of the most recently finished statement on one connection."""

    client_id: str
    class_name: str
    finish_time: float
    execution_time: float
    response_time: float


class SnapshotMonitor:
    """Tracks the last completed statement per client connection: the
    finished :class:`Query` itself is kept until the connection's next
    completion, and samples are built from it when a snapshot is read."""

    def __init__(self) -> None:
        self._last: Dict[str, Query] = {}
        self._completions = 0

    @property
    def completions_seen(self) -> int:
        """Total statement completions recorded."""
        return self._completions

    @property
    def connections(self) -> int:
        """Client connections with at least one completed statement."""
        return len(self._last)

    def record_completion(self, query: Query) -> None:
        """Called by the engine whenever a statement completes."""
        self._completions += 1
        self._last[query.client_id] = query

    def snapshot(
        self,
        class_name: Optional[str] = None,
        since: Optional[float] = None,
    ) -> List[SnapshotSample]:
        """Return the last sample per connection.

        Parameters
        ----------
        class_name:
            Restrict to connections whose last statement belonged to this
            service class.
        since:
            Drop samples whose statement finished before this time (stale
            connections that have gone idle).
        """
        return [
            SnapshotSample(
                query.client_id,
                query.class_name,
                query.finish_time,
                query.execution_time,
                query.response_time,
            )
            for query in self._kept(class_name, since)
        ]

    def average_response_time(
        self,
        class_name: Optional[str] = None,
        since: Optional[float] = None,
    ) -> Optional[float]:
        """Mean response time across connections, or None with no samples.

        The mean of :meth:`snapshot`'s ``response_time`` values, in the same
        order and left fold, read straight off the kept statements.
        """
        times = [query.response_time for query in self._kept(class_name, since)]
        if not times:
            return None
        return sequential_sum(times) / len(times)

    def _kept(self, class_name: Optional[str], since: Optional[float]) -> List[Query]:
        """The last statement per connection, filtered as a snapshot is."""
        return [
            query
            for query in self._last.values()
            if (class_name is None or query.class_name == class_name)
            and (since is None or not query.finish_time < since)
        ]
