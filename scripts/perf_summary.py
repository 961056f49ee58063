#!/usr/bin/env python
"""Markdown tables of the cost and footprint metrics the last smoke runs
recorded in ``perf/out/runs.jsonl`` (stdlib only; no gate: that is
tests/test_event_path.py and tests/test_interval_path.py).

    python3 perf/run.py --smoke && python3 perf/run.py --smoke --trace 1
    python3 scripts/perf_summary.py
"""
import glob, json
tables = {  # trace flag -> the metrics its smoke records are read for
    1: ["host.py_calls_per_query", "sim.events_per_query",
        "sim.self_us_per_query", "dbms.self_us_per_query",
        "sim.calls_per_query", "dbms.calls_per_query",
        "path.control_share", "path.observer_share",
        "core.planner.listeners_ms_per_interval",
        "core.solver.ms_per_interval", "core.solver.calls_per_query"],
    0: ["setup_s", "peak_rss_mb", "host.import_s"],
}
latest = {trace: {} for trace in tables}  # workload -> its last smoke record
try:
    with open("perf/out/runs.jsonl") as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("smoke") and record.get("trace") in latest:
                latest[record["trace"]][record["workload"]] = record
except OSError:
    pass
for trace, names in tables.items():
    print("| workload | " + " | ".join(names) + " |")
    print("|---|" + "---|" * len(names))
    for workload, record in latest[trace].items():
        cells = ["{:.4g}".format(record["metrics"].get(name, float("nan"))) for name in names]
        print("| {} | {} |".format(workload, " | ".join(cells)))
    print()
def lines(path):
    with open(path) as handle:
        return sum(1 for _ in handle)
print("src/ is {} lines of .py, src/repro/cli.py {} (no gate).".format(
    sum(map(lines, glob.glob("src/**/*.py", recursive=True))),
    lines("src/repro/cli.py")))
