"""DB2-style agent pool.

In DB2 UDB every active statement is served by an *agent*; Query Patroller
blocks a query by blocking its agent and releases it through an unblocking
API (Section 2).  The pool here enforces a maximum number of concurrently
active agents; statements arriving when the pool is exhausted wait FIFO.
At :data:`MAX_AGENTS` agents the pool never binds — the paper's control
acts through cost limits, not agents — but it exists so the substrate
degrades the way a real server would if driven without any admission
control at all.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from repro.dbms.query import Query
from repro.errors import SimulationError

#: Concurrently active agents; statements past it wait FIFO.
MAX_AGENTS = 400


class AgentPool:
    """Bounded pool of statement agents with FIFO overflow queueing."""

    def __init__(self) -> None:
        self.max_agents = MAX_AGENTS
        self._active = 0
        self._waiting: Deque[Tuple[Query, Callable[[Query], None]]] = deque()
        self._peak_active = 0
        self._total_waits = 0

    @property
    def active(self) -> int:
        """Agents currently serving statements."""
        return self._active

    @property
    def waiting(self) -> int:
        """Statements queued for an agent."""
        return len(self._waiting)

    @property
    def peak_active(self) -> int:
        """High-water mark of concurrently active agents."""
        return self._peak_active

    @property
    def total_waits(self) -> int:
        """Statements that ever had to wait for an agent."""
        return self._total_waits

    def acquire(self, query: Query, on_granted: Callable[[Query], None]) -> bool:
        """Request an agent for ``query``.

        If one is free, ``on_granted`` is invoked synchronously and True is
        returned; otherwise the request queues and False is returned —
        ``on_granted`` will fire when an agent frees up.
        """
        if self._active < self.max_agents:
            self._active += 1
            if self._active > self._peak_active:
                self._peak_active = self._active
            on_granted(query)
            return True
        self._total_waits += 1
        self._waiting.append((query, on_granted))
        return False

    def release(self) -> Optional[Query]:
        """Return an agent to the pool, handing it to a waiter if any.

        Returns the query that was granted the freed agent, or None.
        """
        if self._active <= 0:
            raise SimulationError("AgentPool.release() with no active agents")
        if self._waiting:
            query, on_granted = self._waiting.popleft()
            # The agent moves directly from the finisher to the waiter, so
            # the active count is unchanged.
            on_granted(query)
            return query
        self._active -= 1
        return None
