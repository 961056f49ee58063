"""Query Patroller control tables.

DB2 QP records every intercepted query in its control tables; the paper's
Monitor "collects the information about the query from the DB2 QP control
tables, including the query identification, query cost and query execution
information" (Section 2).  :class:`ControlTables` is that store: an
append-ordered log of :class:`QueryRecord` rows with status transitions and a
cursor-based ``fetch_since`` the Monitor uses to poll for new arrivals
without re-reading history.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import PatrollerError

#: Status values a control-table record moves through.
STATUS_QUEUED = "queued"
STATUS_RELEASED = "released"
STATUS_COMPLETED = "completed"
STATUS_CANCELLED = "cancelled"
STATUS_REJECTED = "rejected"


class QueryRecord:
    """One row of the intercepted-queries control table."""

    __slots__ = (
        "seq",
        "query_id",
        "class_name",
        "client_id",
        "template",
        "kind",
        "estimated_cost",
        "submit_time",
        "intercept_time",
        "release_time",
        "finish_time",
        "status",
    )

    def __init__(
        self,
        seq: int,
        query_id: int,
        class_name: str,
        client_id: str,
        template: str,
        kind: str,
        estimated_cost: float,
        submit_time: float,
        intercept_time: float,
    ) -> None:
        self.seq = seq
        self.query_id = query_id
        self.class_name = class_name
        self.client_id = client_id
        self.template = template
        self.kind = kind
        self.estimated_cost = estimated_cost
        self.submit_time = submit_time
        self.intercept_time = intercept_time
        self.release_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self.status = STATUS_QUEUED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "QueryRecord(#{}, {}, cost={:.0f}, {})".format(
            self.query_id, self.class_name, self.estimated_cost, self.status
        )


class ControlTables:
    """Append-ordered store of intercepted-query records."""

    __slots__ = ("_by_id", "_log")

    def __init__(self) -> None:
        self._by_id: Dict[int, QueryRecord] = {}
        self._log: List[QueryRecord] = []

    def __len__(self) -> int:
        return len(self._log)

    def record_interception(
        self,
        query_id: int,
        class_name: str,
        client_id: str,
        template: str,
        kind: str,
        estimated_cost: float,
        submit_time: float,
        intercept_time: float,
    ) -> QueryRecord:
        """Insert the row for a freshly intercepted query."""
        if query_id in self._by_id:
            raise PatrollerError(
                "query {} intercepted twice".format(query_id)
            )
        record = QueryRecord(
            seq=len(self._log),
            query_id=query_id,
            class_name=class_name,
            client_id=client_id,
            template=template,
            kind=kind,
            estimated_cost=estimated_cost,
            submit_time=submit_time,
            intercept_time=intercept_time,
        )
        self._by_id[query_id] = record
        self._log.append(record)
        return record

    def get(self, query_id: int) -> QueryRecord:
        """Look up a record; raises PatrollerError if absent."""
        record = self._by_id.get(query_id)
        if record is None:
            raise PatrollerError("no control-table record for query {}".format(query_id))
        return record

    def find(self, query_id: int) -> Optional[QueryRecord]:
        """The non-raising twin of :meth:`get`: None if there is no row."""
        return self._by_id.get(query_id)

    def mark_released(self, query_id: int, time: float) -> None:
        """Transition a queued record to released."""
        record = self.get(query_id)
        if record.status != STATUS_QUEUED:
            raise PatrollerError(
                "query {} released from status {!r}".format(query_id, record.status)
            )
        record.status = STATUS_RELEASED
        record.release_time = time

    def mark_cancelled(self, query_id: int, time: float) -> None:
        """Transition a queued or released record to cancelled.

        Queued statements are the common case (user abandonment); a released
        statement can still be cancelled while its agent is being unblocked,
        i.e. before execution begins.
        """
        record = self.get(query_id)
        if record.status not in (STATUS_QUEUED, STATUS_RELEASED):
            raise PatrollerError(
                "query {} cancelled from status {!r}".format(query_id, record.status)
            )
        record.status = STATUS_CANCELLED
        record.finish_time = time

    def mark_rejected(self, query_id: int, time: float) -> None:
        """Transition a queued record to rejected (policy refused it)."""
        record = self.get(query_id)
        if record.status != STATUS_QUEUED:
            raise PatrollerError(
                "query {} rejected from status {!r}".format(query_id, record.status)
            )
        record.status = STATUS_REJECTED
        record.finish_time = time

    def mark_completed(self, query_id: int, time: float) -> None:
        """Transition a released record to completed."""
        record = self.get(query_id)
        if record.status != STATUS_RELEASED:
            raise PatrollerError(
                "query {} completed from status {!r}".format(query_id, record.status)
            )
        record.status = STATUS_COMPLETED
        record.finish_time = time

    def fetch_since(self, cursor: int) -> List[QueryRecord]:
        """Records appended at or after log sequence ``cursor``.

        The Monitor keeps ``cursor = last_seen + 1`` to poll incrementally.
        """
        if cursor < 0:
            cursor = 0
        return self._log[cursor:]

    def queued(self) -> List[QueryRecord]:
        """Records still waiting for release, in interception order."""
        return [r for r in self._log if r.status == STATUS_QUEUED]

    def counts_by_status(self) -> Dict[str, int]:
        """Histogram of record statuses (for reporting/tests)."""
        counts: Dict[str, int] = {}
        for record in self._log:
            counts[record.status] = counts.get(record.status, 0) + 1
        return counts
