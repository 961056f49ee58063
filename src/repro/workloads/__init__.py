"""Workload generation (substrate).

TPC-H-like OLAP templates, TPC-C-like OLTP transactions, closed-loop
clients with zero think time, and the reconstructed 18-period intensity
schedule of the paper's Figure 3.
"""

from repro import lazy_exports

_EXPORTS = {
    "QueryTemplate": "repro.workloads.spec",
    "WorkloadMix": "repro.workloads.spec",
    "QueryFactory": "repro.workloads.spec",
    "ClosedLoopClient": "repro.workloads.client",
    "WorkloadTrace": "repro.workloads.trace",
    "TraceEntry": "repro.workloads.trace",
    "TraceRecorder": "repro.workloads.trace",
    "TraceReplayer": "repro.workloads.trace",
    "PeriodSchedule": "repro.workloads.schedule",
    "ClientPoolManager": "repro.workloads.schedule",
    "paper_schedule": "repro.workloads.schedule",
    "tpch_mix": "repro.workloads.tpch",
    "TPCH_EXCLUDED": "repro.workloads.tpch",
    "tpcc_mix": "repro.workloads.tpcc",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
