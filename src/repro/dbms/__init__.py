"""Simulated DB2-like database engine (substrate).

This subpackage stands in for IBM DB2 UDB v8.2 on the paper's xSeries 240
testbed.  It provides exactly the surface the Query Scheduler framework
observes and actuates: statement execution on shared CPU/disk pools with
contention and a thrashing knee, an agent pool, an optimizer that prices
queries in timerons (with estimation error), and a snapshot monitor exposing
the most recently completed statement per client connection.
"""

from repro import lazy_exports

_EXPORTS = {
    "AgentPool": "repro.dbms.agent",
    "DatabaseEngine": "repro.dbms.engine",
    "CostEstimator": "repro.dbms.optimizer",
    "OverloadModel": "repro.dbms.overload",
    "Phase": "repro.dbms.query",
    "Query": "repro.dbms.query",
    "QueryState": "repro.dbms.query",
    "SnapshotMonitor": "repro.dbms.snapshot",
    "SnapshotSample": "repro.dbms.snapshot",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
