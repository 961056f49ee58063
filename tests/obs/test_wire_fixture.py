"""The live protocol's bytes against a recording of them.

``fixtures/events_qs.jsonl`` holds ``json.dumps(event.to_dict())`` for every
event of :func:`tests.conftest.dense_smoke_spec` run with a hub attached
(seed 7, 2 x 20 s, 8 classes, strict invariants, tracing) and, as its last
line, ``hub.snapshot()`` after the run — with the wall-clock ``overhead``
values set to zero, the only thing in a frame that is not a simulated fact.
It was recorded at the commit *before* ``interval`` events started carrying
the planner's record instead of a rendered copy of it, so byte equality here
is what "the wire did not change" means (key order included: the server
dumps without ``sort_keys``).  Regenerate
(``PYTHONPATH=src:. python tests/obs/test_wire_fixture.py``) only for a
change that is meant to move the protocol, and bump ``PROTOCOL_VERSION``
with it.
"""

from __future__ import annotations

import json
import os
import threading
import urllib.request

from repro.experiments.runner import run_spec
from repro.obs.live import LiveServer, TelemetryHub
from tests.conftest import dense_smoke_spec

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "events_qs.jsonl")


def _masked(interval_data):
    """Zero the wall-clock readings of an ``interval`` payload, in place."""
    overhead = interval_data["record"]["overhead"]
    for key in overhead:
        overhead[key] = 0.0


def wire_lines():
    """Every frame of the run, then the late joiner's snapshot, as JSON text."""
    hub = TelemetryHub()
    subscription = hub.subscribe(max_queue=1 << 16)
    run_spec(dense_smoke_spec(), hub=hub)
    lines = []
    for event in subscription.drain():
        wire = event.to_dict()
        if event.type == "interval":
            _masked(wire["data"])
        lines.append(json.dumps(wire))
    snapshot = hub.snapshot()
    for entry in snapshot["shards"].values():
        _masked(entry["data"])
    lines.append(json.dumps(snapshot))
    return lines


def test_every_frame_and_the_snapshot_equal_the_recording():
    with open(FIXTURE) as handle:
        recorded = handle.read().splitlines()
    lines = wire_lines()
    assert len(lines) == len(recorded)
    for number, (line, expected) in enumerate(zip(lines, recorded), start=1):
        assert line == expected, "fixture line {}".format(number)
    types = [json.loads(line).get("type") for line in recorded]
    assert types.count("interval") == 40 and "spans" in types
    assert types[0] == "snapshot" and types[-2] == "run_end" and types[-1] is None


def test_sse_interval_frames_equal_the_exported_lines(tmp_path):
    """A frame is rendered on the server's handler thread while the run
    thread keeps planning; what it carries as ``record`` is, byte for byte,
    the line ``save_jsonl`` writes for that interval after the run."""
    hub = TelemetryHub()
    server = LiveServer(hub).start()
    frames = {}

    def consume(stream):
        event_type = None
        for raw in stream:
            line = raw.decode()
            if line.startswith("event: "):
                event_type = line[len("event: "):].strip()
            elif line.startswith("data: ") and event_type == "interval":
                data = json.loads(line[len("data: "):])["data"]
                frames[data["interval_index"]] = json.dumps(data["record"])
            elif line.startswith("data: ") and event_type == "run_end":
                return

    request = urllib.request.Request(
        server.url + "events", headers={"Accept": "text/event-stream"}
    )
    stream = urllib.request.urlopen(request, timeout=30)
    client = threading.Thread(target=consume, args=(stream,), daemon=True)
    try:
        client.start()
        result = run_spec(dense_smoke_spec(), hub=hub)
        client.join(timeout=30)
        assert not client.is_alive()
    finally:
        stream.close()
        server.stop()
    path = tmp_path / "telemetry.jsonl"
    result.extras["telemetry"].save_jsonl(str(path))
    exported = path.read_text().splitlines()
    assert len(exported) == 40
    assert frames == dict(enumerate(exported))


if __name__ == "__main__":
    with open(FIXTURE, "w") as handle:
        handle.write("\n".join(wire_lines()) + "\n")
