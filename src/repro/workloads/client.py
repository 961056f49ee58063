"""Closed-loop clients.

"Each client submitted queries one after another with zero think time"
(Section 4).  A :class:`ClosedLoopClient` keeps exactly one statement in the
system at a time: it submits, waits for the completion callback, optionally
thinks, and submits again.  Clients are activated and deactivated by the
period schedule; a deactivated client finishes its in-flight statement and
then goes idle, which is how "workload intensity was controlled by the
number of clients".

Clients may additionally have *patience*: if a statement is still held by
the workload-control layer (not yet released into the engine) after
``patience`` seconds, the client cancels it through QP's cancel command and
moves on — the classic user-abandonment behaviour that workload managers
must tolerate.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.dbms.query import REJECTED, Query
from repro.patroller.patroller import QueryPatroller
from repro.runtime import TimerService
from repro.workloads.spec import QueryFactory, WorkloadMix


class ClosedLoopClient:
    """One interactive client connection driving one workload mix."""

    def __init__(
        self,
        sim: TimerService,
        patroller: QueryPatroller,
        factory: QueryFactory,
        mix: WorkloadMix,
        class_name: str,
        client_id: str,
        think_time: float = 0.0,
        patience: Optional[float] = None,
    ) -> None:
        if patience is not None and patience <= 0:
            raise ValueError("patience must be positive (or None)")
        self.sim = sim
        self.patroller = patroller
        self.factory = factory
        self.mix = mix
        self.class_name = class_name
        self.client_id = client_id
        self.think_time = think_time
        self.patience = patience
        self.active = False
        self.queries_submitted = 0
        self.queries_completed = 0
        self.queries_abandoned = 0
        self.queries_rejected = 0
        self._in_flight: Optional[Query] = None
        #: Optional hook fired on every completion (used by tests).
        self.on_query_complete: Optional[Callable[[Query], None]] = None
        # Event labels are fixed per client; formatting them per statement
        # shows up in profiles at replication scale.
        self._think_label = "client:{}:think".format(client_id)
        self._patience_label = "client:{}:patience".format(client_id)

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
        if self.patience is not None:
            self.sim.schedule(
                self.patience,
                lambda q=query: self._maybe_abandon(q),
                self._patience_label,
            )

    def _maybe_abandon(self, query: Query) -> None:
        if self._in_flight is not query:
            return  # already completed
        if not self.patroller.cancel(query):
            return  # already released; let it finish
        self._in_flight = None
        self.queries_abandoned += 1
        if not self.active:
            return
        if self.think_time > 0:
            self.sim.schedule(self.think_time, self._maybe_submit)
        else:
            self._submit_next()

    def _on_complete(self, query: Query) -> None:
        self._in_flight = None
        if query.state is REJECTED:
            # Policy refused the statement (e.g. QP max-cost): the user
            # sees an error and moves on to their next request.
            self.queries_rejected += 1
        else:
            self.queries_completed += 1
            if self.on_query_complete is not None:
                self.on_query_complete(query)
        if not self.active:
            return
        if self.think_time > 0:
            self.sim.schedule(
                self.think_time,
                self._maybe_submit,
                self._think_label,
            )
        else:
            self._submit_next()

    def _maybe_submit(self) -> None:
        if self.active and self._in_flight is None:
            self._submit_next()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ClosedLoopClient({!r}, {}, active={})".format(
            self.client_id, self.class_name, self.active
        )
