"""DB2 Query Patroller-like interception layer (substrate).

Query Patroller "is configured to automatically intercept all queries,
record detailed query information, and block the DB2 agent responsible for
executing the query until an explicit operator command is received"
(Section 2).  This subpackage provides that surface: per-class interception
with realistic overheads, control tables that are the one record of every
intercepted statement still open (the Monitor reads them), an unblocking
(release) API, and Query Patroller's own static control policy (cost groups
and submitter priorities) used as the paper's comparison baseline.
"""

from repro import lazy_exports

_EXPORTS = {
    "QueryPatroller": "repro.patroller.patroller",
    "ControlTables": "repro.patroller.tables",
    "QPStaticPolicy": "repro.patroller.policy",
    "CostGroup": "repro.patroller.policy",
    "percentile_thresholds": "repro.patroller.policy",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
