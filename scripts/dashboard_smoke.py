#!/usr/bin/env python
"""End-to-end smoke test for the live dashboard (stdlib only).

Launches a short sharded sqlite-backend run with ``--dashboard`` on an
ephemeral port, then — while the run executes — exercises every endpoint:

* ``/api/snapshot`` parses as JSON and carries protocol version 1;
* ``/events`` streams SSE: at least 2 ``interval`` events arrive, and
  each carries the control interval's record (the one object the planner
  built, serialised by the publisher) with matching ``interval_index``
  and a ``violations`` list;
* ``/metrics`` renders the Prometheus exposition: every ``dispatcher_*``
  family carries ``class=`` and ``shard=`` labels, ``planner_intervals_total``
  a ``shard=`` label, and ``dispatcher_released_total`` never decreases
  from one fetch to the next and becomes non-zero while the run executes
  (the instruments are live reads — a component that stopped registering
  would be missing here);
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

#: The per-class families the Dispatcher publishes.
DISPATCHER_FAMILIES = (
    "dispatcher_enqueued_total",
    "dispatcher_released_total",
    "dispatcher_completed_total",
    "dispatcher_cancelled_total",
    "dispatcher_queue_cancelled_total",
    "dispatcher_queue_length",
    "dispatcher_in_flight_cost",
    "dispatcher_in_flight_count",
)


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


def parse_metrics(text):
    """``{family: {rendered label set: value}}`` of a Prometheus exposition."""
    families = {}
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        series, value = line.rsplit(" ", 1)
        name, _, labels = series.partition("{")
        families.setdefault(name, {})[labels.rstrip("}")] = float(value)
    return families


def check_families(metrics):
    """Every dispatcher/planner registration is there and labelled."""
    for family in DISPATCHER_FAMILIES:
        series = metrics.get(family)
        assert series, "family {} missing from /metrics".format(family)
        for labels in series:
            assert 'class="' in labels and 'shard="' in labels, (family, labels)
    intervals = metrics.get("planner_intervals_total")
    assert intervals, "planner_intervals_total missing from /metrics"
    assert all('shard="' in labels for labels in intervals), intervals


def wait_for_releases(base, previous, deadline):
    """Fetch ``/metrics`` until a release shows; no fetch may read less."""
    while True:
        current = parse_metrics(fetch(base + "metrics"))
        released = current["dispatcher_released_total"]
        for labels, value in previous["dispatcher_released_total"].items():
            assert released[labels] >= value, (labels, value, released[labels])
        if sum(released.values()) > 0:
            return released
        assert time.monotonic() < deadline, "no release ever showed in /metrics"
        previous = current
        time.sleep(0.5)


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

            html = fetch(base)
            assert "<!DOCTYPE html>" in html and "EventSource" in html
            print("dashboard HTML OK ({} bytes)".format(len(html)))

            first = parse_metrics(metrics)
            check_families(first)
            released = wait_for_releases(base, first, deadline)
            print("metrics OK ({} lines, released so far: {})".format(
                len(metrics.splitlines()), released
            ))

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
