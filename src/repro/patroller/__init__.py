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

from repro.patroller.patroller import QueryPatroller
from repro.patroller.policy import CostGroup, QPStaticPolicy, percentile_thresholds
from repro.patroller.tables import ControlTables

__all__ = [
    "QueryPatroller",
    "ControlTables",
    "QPStaticPolicy",
    "CostGroup",
    "percentile_thresholds",
]
