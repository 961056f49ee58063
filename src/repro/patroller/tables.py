"""Query Patroller control tables.

DB2 QP records every intercepted query in its control tables; the paper's
Monitor "collects the information about the query from the DB2 QP control
tables, including the query identification, query cost and query execution
information" (Section 2).  :class:`ControlTables` is that store: one open
row per intercepted statement that has not yet ended, in interception
order.  A row *is* the statement's :class:`~repro.dbms.query.Query`, so its
status is ``query.state`` (``QUEUED`` while held, then ``RELEASED`` /
``EXECUTING``); a row that ends leaves the table and is counted under its
terminal status.
"""

from __future__ import annotations

from typing import Dict, Optional, ValuesView

from repro.dbms.query import Query, QueryState
from repro.errors import PatrollerError


class ControlTables:
    """The intercepted statements still open, plus ended-row counts."""

    __slots__ = ("_open", "_ended")

    def __init__(self) -> None:
        self._open: Dict[int, Query] = {}
        self._ended: Dict[QueryState, int] = {}

    def __len__(self) -> int:
        """Rows ever written: the open ones and the ended ones."""
        return len(self._open) + sum(self._ended.values())

    def record(self, query: Query) -> None:
        """Open the row of a freshly intercepted statement."""
        if query.query_id in self._open:
            raise PatrollerError("query {} intercepted twice".format(query.query_id))
        self._open[query.query_id] = query

    def find(self, query_id: int) -> Optional[Query]:
        """The open row of ``query_id``, or None if it has none."""
        return self._open.get(query_id)

    def close(self, query: Query) -> None:
        """End a statement's open row under its (terminal) ``query.state``;
        a statement with no open row is left alone."""
        if self._open.pop(query.query_id, None) is not None:
            self._ended[query.state] = self._ended.get(query.state, 0) + 1

    def open(self) -> ValuesView[Query]:
        """The open rows in interception order (a live view: copy it to
        keep it across a transition)."""
        return self._open.values()

    def counts_by_status(self) -> Dict[str, int]:
        """Rows per status, open and ended (for reporting and tests)."""
        counts: Dict[str, int] = {}
        for query in self._open.values():
            counts[query.state.value] = counts.get(query.state.value, 0) + 1
        for state, count in self._ended.items():
            counts[state.value] = counts.get(state.value, 0) + count
        return counts
