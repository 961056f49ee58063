"""Workload generation (substrate).

TPC-H-like OLAP templates, TPC-C-like OLTP transactions, closed-loop
clients with zero think time, and the reconstructed 18-period intensity
schedule of the paper's Figure 3.
"""

from repro.workloads.client import ClosedLoopClient
from repro.workloads.trace import (
    TraceEntry,
    TraceRecorder,
    TraceReplayer,
    WorkloadTrace,
)
from repro.workloads.schedule import (
    ClientPoolManager,
    PeriodSchedule,
    paper_schedule,
)
from repro.workloads.spec import QueryFactory, QueryTemplate, WorkloadMix
from repro.workloads.tpcc import tpcc_mix
from repro.workloads.tpch import tpch_mix, TPCH_EXCLUDED

__all__ = [
    "QueryTemplate",
    "WorkloadMix",
    "QueryFactory",
    "ClosedLoopClient",
    "WorkloadTrace",
    "TraceEntry",
    "TraceRecorder",
    "TraceReplayer",
    "PeriodSchedule",
    "ClientPoolManager",
    "paper_schedule",
    "tpch_mix",
    "TPCH_EXCLUDED",
    "tpcc_mix",
]
