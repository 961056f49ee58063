"""Closed-loop clients.

"Each client submitted queries one after another with zero think time"
(Section 4).  A :class:`ClosedLoopClient` keeps exactly one statement in the
system at a time: it submits, waits for the completion callback (or QP's
cancellation of the statement), and submits again at once.
Clients are activated and deactivated by the period schedule; a deactivated
client finishes its in-flight statement and then goes idle, which is how
"workload intensity was controlled by the number of clients".
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.dbms.query import COMPLETED, Query
from repro.patroller.patroller import QueryPatroller
from repro.workloads.spec import QueryFactory, WorkloadMix


class ClosedLoopClient:
    """One interactive client connection driving one workload mix."""

    def __init__(
        self,
        patroller: QueryPatroller,
        factory: QueryFactory,
        mix: WorkloadMix,
        class_name: str,
        client_id: str,
    ) -> None:
        self.patroller = patroller
        self.factory = factory
        self.mix = mix
        self.class_name = class_name
        self.client_id = client_id
        self.active = False
        self.queries_submitted = 0
        self.queries_completed = 0
        self._in_flight: Optional[Query] = None
        #: Optional hook fired on every completion (used by tests).
        self.on_query_complete: Optional[Callable[[Query], None]] = None

    @property
    def busy(self) -> bool:
        """Whether the client has a statement in the system."""
        return self._in_flight is not None

    def activate(self) -> None:
        """Start (or resume) the submit loop."""
        if self.active:
            return
        self.active = True
        if self._in_flight is None:
            self._submit_next()

    def deactivate(self) -> None:
        """Stop submitting after the current statement (if any) completes."""
        self.active = False

    def _submit_next(self) -> None:
        query = self.factory.create(self.mix, self.class_name, self.client_id)
        query.on_complete = self._on_complete
        self._in_flight = query
        self.queries_submitted += 1
        self.patroller.submit(query)

    def _on_complete(self, query: Query) -> None:
        # Also the end of a statement QP cancelled: the client stops
        # waiting for it and goes on, but it did not complete.
        self._in_flight = None
        if query.state is COMPLETED:
            self.queries_completed += 1
            if self.on_query_complete is not None:
                self.on_query_complete(query)
        if self.active:
            self._submit_next()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ClosedLoopClient({!r}, {}, active={})".format(
            self.client_id, self.class_name, self.active
        )
