#!/usr/bin/env python
"""End-to-end smoke test for the live dashboard (stdlib only).

Launches a short sharded sqlite-backend run with ``--dashboard`` on an
ephemeral port, then — while the run executes — exercises every endpoint:

* ``/api/snapshot`` parses as JSON and carries protocol version 1;
* ``/events`` streams SSE: at least 2 ``interval`` events arrive, and
  each carries the control interval's record (the one object the planner
  built, serialised by the publisher) with matching ``interval_index``
  and a ``violations`` list;
* ``/metrics`` renders the Prometheus exposition with per-shard labels;
* ``/`` serves the embedded dashboard HTML;

and finally asserts the run process exits 0 (clean server shutdown).

Used as the CI "dashboard smoke" step; runnable locally::

    PYTHONPATH=src python scripts/dashboard_smoke.py
"""

import json
import os
import subprocess
import sys
import tempfile
import time
import urllib.request

TIMEOUT = 120.0  # overall wall-clock budget, seconds
SSE_INTERVAL_EVENTS = 2  # acceptance floor


def fetch(url, timeout=10.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read().decode("utf-8")


def wait_for_port(path, proc, deadline):
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(
                "run process exited early (rc={})".format(proc.returncode)
            )
        try:
            with open(path) as handle:
                text = handle.read().strip()
            if text:
                return int(text)
        except OSError:
            pass
        time.sleep(0.2)
    raise SystemExit("timed out waiting for the dashboard port file")


def read_sse_intervals(base, want, deadline):
    """Read the SSE stream until ``want`` interval events (or deadline).

    Returns the parsed ``data:`` payload (the wire event) of each.
    """
    events = []
    event_type = None
    request = urllib.request.Request(
        base + "events", headers={"Accept": "text/event-stream"}
    )
    with urllib.request.urlopen(request, timeout=30.0) as stream:
        for raw in stream:
            line = raw.decode("utf-8").rstrip("\n")
            if line.startswith("event: "):
                event_type = line[len("event: "):]
            elif line.startswith("data: ") and event_type == "interval":
                events.append(json.loads(line[len("data: "):]))
                if len(events) >= want:
                    return events
            if time.monotonic() > deadline:
                return events
    return events


def check_interval_record(event):
    """The record path end to end: planner -> publisher -> hub -> HTTP."""
    data = event["data"]
    record = data["record"]
    assert isinstance(record, dict), "interval event without a record: {}".format(data)
    assert record["interval_index"] == data["interval_index"], (
        record["interval_index"], data["interval_index"]
    )
    assert isinstance(record["violations"], list), record["violations"]


def main():
    start = time.monotonic()
    deadline = start + TIMEOUT
    with tempfile.TemporaryDirectory() as tmp:
        port_file = os.path.join(tmp, "port")
        cmd = [
            sys.executable, "-m", "repro", "run",
            "--backend", "sqlite", "--shards", "2",
            "--dashboard", "--port-file", port_file,
            "--linger", "6",
        ]
        proc = subprocess.Popen(cmd)
        try:
            port = wait_for_port(port_file, proc, deadline)
            base = "http://127.0.0.1:{}/".format(port)
            print("dashboard up on port", port)

            snapshot = json.loads(fetch(base + "api/snapshot"))
            assert snapshot["v"] == 1, snapshot
            print("snapshot OK (seq={})".format(snapshot["seq"]))

            intervals = read_sse_intervals(
                base, SSE_INTERVAL_EVENTS, deadline
            )
            assert len(intervals) >= SSE_INTERVAL_EVENTS, (
                "only {} SSE interval events (need >= {})".format(
                    len(intervals), SSE_INTERVAL_EVENTS
                )
            )
            for event in intervals:
                check_interval_record(event)
            print("SSE OK ({} interval events, each with its record)".format(
                len(intervals)
            ))

            metrics = fetch(base + "metrics")
            assert "# HELP" in metrics and "# TYPE" in metrics, metrics[:200]
            assert 'shard="0"' in metrics, "per-shard labels missing"
            print("metrics OK ({} lines)".format(len(metrics.splitlines())))

            html = fetch(base)
            assert "<!DOCTYPE html>" in html and "EventSource" in html
            print("dashboard HTML OK ({} bytes)".format(len(html)))

            snapshot = json.loads(fetch(base + "api/snapshot"))
            assert snapshot["shards"], "no per-shard interval state"
            assert snapshot["run"]["shards"] == 2, snapshot["run"]
            print("fleet snapshot OK (shards seen: {})".format(
                sorted(snapshot["shards"])
            ))

            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            assert rc == 0, "run exited {}".format(rc)
            print("clean shutdown OK (exit 0, {:.1f}s total)".format(
                time.monotonic() - start
            ))
        finally:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    proc.kill()


if __name__ == "__main__":
    main()
