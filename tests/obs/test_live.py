"""Tests for the live telemetry hub, publishers, and HTTP layer.

Covers the versioned protocol (sequence numbers, snapshot folding,
bounded subscriber queues with drop counters), the publisher wiring into
``run_spec`` and the shard coordinator (conservation across shards,
bit-identity with the golden regression data), and the stdlib HTTP/SSE
server.
"""

from __future__ import annotations

import json
import threading
import urllib.request
from dataclasses import replace

import pytest

from repro.config import default_config
from repro.errors import ConfigurationError, MetricsError
from repro.experiments.runner import ExperimentSpec, run_spec
from repro.obs.live import (
    EVENT_TYPES,
    PROTOCOL_VERSION,
    LiveServer,
    RunPublisher,
    TelemetryHub,
)
from repro.obs.live.hub import SNAPSHOT_REBALANCES
from repro.obs.live.publish import SPANS_PER_EVENT
from repro.obs.registry import MetricsRegistry
from repro.shard.coordinator import run_sharded
from repro.shard.spec import ShardedExperimentSpec
from tests.runtime.test_sim_regression import (
    GOLDEN_ATTAINMENT,
    GOLDEN_PLANS,
    GOLDEN_SERIES,
    _golden_spec,
)


def _tiny_config(num_periods=2, seed=7):
    config = default_config(seed=seed)
    return replace(config, scale=replace(config.scale, num_periods=num_periods))


def _tiny_spec(**overrides):
    defaults = dict(controller="qs", config=_tiny_config())
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestProtocol:
    def test_publish_stamps_monotonic_seq(self):
        hub = TelemetryHub()
        sub = hub.subscribe()
        for index in range(5):
            hub.publish("interval", {"n": index}, time=float(index))
        events = sub.drain()
        assert [e.seq for e in events] == [1, 2, 3, 4, 5]
        assert hub.seq == 5

    def test_event_wire_form(self):
        hub = TelemetryHub()
        event = hub.publish("interval", {"x": 1}, time=2.5, shard=3)
        wire = event.to_dict()
        assert wire == {
            "v": PROTOCOL_VERSION,
            "seq": 1,
            "type": "interval",
            "time": 2.5,
            "shard": 3,
            "data": {"x": 1},
        }
        json.dumps(wire)  # must be JSON-serializable

    def test_unknown_event_type_rejected(self):
        hub = TelemetryHub()
        with pytest.raises(MetricsError):
            hub.publish("bogus", {})
        assert "interval" in EVENT_TYPES

    def test_snapshot_folds_latest_state(self):
        hub = TelemetryHub()
        hub.publish("snapshot", {"controller": "qs"})
        hub.publish("interval", {"n": 1}, time=30.0, shard=0)
        hub.publish("interval", {"n": 2}, time=60.0, shard=0)
        hub.publish("interval", {"n": 3}, time=60.0, shard=1)
        hub.publish("run_end", {"done": True}, shard=1)
        snap = hub.snapshot()
        assert snap["v"] == PROTOCOL_VERSION
        assert snap["seq"] == 5
        assert snap["run"] == {"controller": "qs"}
        # Latest interval per shard wins.
        assert snap["shards"]["0"]["data"] == {"n": 2}
        assert snap["shards"]["1"]["data"] == {"n": 3}
        assert snap["run_end"]["1"] == {"done": True}

    def test_snapshot_is_a_deep_copy(self):
        hub = TelemetryHub()
        hub.publish("interval", {"nested": {"n": 1}}, shard=0)
        snap = hub.snapshot()
        snap["shards"]["0"]["data"]["nested"]["n"] = 99
        assert hub.snapshot()["shards"]["0"]["data"]["nested"]["n"] == 1

    def test_rebalance_history_is_bounded(self):
        hub = TelemetryHub()
        for index in range(SNAPSHOT_REBALANCES + 10):
            hub.publish("shard_rebalance", {"n": index}, time=float(index))
        rebalances = hub.snapshot()["rebalances"]
        assert len(rebalances) == SNAPSHOT_REBALANCES
        assert rebalances[-1]["data"]["n"] == SNAPSHOT_REBALANCES + 9

    def test_subscribe_before_snapshot_leaves_no_gap(self):
        hub = TelemetryHub()
        hub.publish("interval", {"n": 1}, shard=0)
        sub = hub.subscribe()
        snap = hub.snapshot()
        hub.publish("interval", {"n": 2}, shard=0)
        streamed = [e.seq for e in sub.drain()]
        # Everything after the snapshot's seq is in the stream: a client
        # that applies the snapshot then replays seq > snapshot.seq sees
        # every event exactly once.
        assert snap["seq"] == 1
        assert streamed == [2]


class TestSubscription:
    def test_slow_consumer_drops_oldest(self):
        hub = TelemetryHub()
        sub = hub.subscribe(max_queue=3)
        for index in range(10):
            hub.publish("interval", {"n": index})
        assert sub.dropped == 7
        assert sub.queued == 3
        kept = [e.data["n"] for e in sub.drain()]
        assert kept == [7, 8, 9]  # newest survive

    def test_pop_timeout_returns_none(self):
        hub = TelemetryHub()
        sub = hub.subscribe()
        assert sub.pop(timeout=0.01) is None

    def test_pop_wakes_on_publish_from_other_thread(self):
        hub = TelemetryHub()
        sub = hub.subscribe()
        timer = threading.Timer(0.05, hub.publish, args=("interval", {"n": 1}))
        timer.start()
        event = sub.pop(timeout=5.0)
        timer.join()
        assert event is not None and event.data == {"n": 1}

    def test_close_unsubscribes_and_wakes(self):
        hub = TelemetryHub()
        sub = hub.subscribe()
        assert hub.subscriber_count == 1
        timer = threading.Timer(0.05, sub.close)
        timer.start()
        assert sub.pop(timeout=5.0) is None
        timer.join()
        assert hub.subscriber_count == 0
        assert sub.closed
        # Offers after close are ignored, not queued.
        hub.publish("interval", {"n": 1})
        assert sub.queued == 0

    def test_invalid_max_queue_rejected(self):
        hub = TelemetryHub()
        for bad in (0, -1, 1.5, True, "8"):
            with pytest.raises(MetricsError):
                hub.subscribe(max_queue=bad)


class TestHubMetrics:
    def test_fleet_prometheus_renders_each_family_once(self):
        hub = TelemetryHub()
        for shard in (0, 1):
            registry = MetricsRegistry()
            registry.counter(
                "releases_total", labels={"class": "class1"},
                description="Released queries",
                callback=lambda released=shard + 1: released,
            )
            hub.register_registry(registry, shard=shard)
        text = hub.prometheus()
        assert text.count("# HELP releases_total") == 1
        assert 'releases_total{class="class1",shard="0"} 1.0' in text
        assert 'releases_total{class="class1",shard="1"} 2.0' in text

    def test_unsharded_registry_has_no_shard_label(self):
        hub = TelemetryHub()
        registry = MetricsRegistry()
        registry.gauge("queue_length", callback=lambda: 4.0)
        hub.register_registry(registry)
        assert "queue_length 4.0" in hub.prometheus()


class TestRunPublisher:
    def test_hub_attached_run_matches_golden_data(self):
        """Publishing is observation-only: the pinned seeded run must stay
        bit-identical with a hub (and a slow subscriber) attached."""
        hub = TelemetryHub()
        hub.subscribe(max_queue=1)  # pathologically slow consumer
        result = run_spec(_golden_spec(), hub=hub)
        series = result.performance_series()
        for class_name, golden in GOLDEN_SERIES.items():
            assert series[class_name] == golden, class_name
        assert result.goal_attainment() == GOLDEN_ATTAINMENT
        plans = [
            {name: round(limit) for name, limit in limits.items()}
            for _, limits in result.collector._plan_points
        ]
        assert plans == GOLDEN_PLANS

    def test_interval_events_match_controller_plans(self):
        hub = TelemetryHub()
        sub = hub.subscribe()
        result = run_spec(_tiny_spec(), hub=hub)
        events = sub.drain()
        intervals = [e for e in events if e.type == "interval"]
        assert len(intervals) == len(result.collector._plan_points)
        assert [e.type for e in events[:1]] == ["snapshot"]
        assert events[-1].type == "run_end"
        last = intervals[-1]
        assert last.shard is None
        assert set(last.data["classes"]) == {c.name for c in result.classes}
        # In process the event carries the planner's record itself ...
        assert last.record is result.extras["telemetry"].records[-1]
        # ... and on the wire its full dict, beside the plan it installed.
        wire = last.to_dict()["data"]
        assert wire["cost_limits"] == last.record.plan.as_dict()
        assert wire["record"]["time"] == last.time
        assert wire["classes"] == last.data["classes"]
        assert wire["total_completions"] == last.data["total_completions"]

    def test_run_end_carries_final_attainment(self):
        hub = TelemetryHub()
        sub = hub.subscribe()
        result = run_spec(_tiny_spec(), hub=hub)
        ends = [e for e in sub.drain() if e.type == "run_end"]
        assert len(ends) == 1
        assert ends[0].data["attainment"] == result.goal_attainment()
        assert (
            ends[0].data["total_completions"]
            == result.collector.total_completions
        )

    def test_traced_run_publishes_spans(self):
        hub = TelemetryHub()
        sub = hub.subscribe()
        run_spec(_tiny_spec(tracing=True), hub=hub)
        spans_events = [e for e in sub.drain() if e.type == "spans"]
        assert spans_events
        for event in spans_events:
            slowest = event.data["slowest"]
            assert slowest
            durations = [s["duration"] for s in slowest]
            assert durations == sorted(durations, reverse=True)

    def test_spans_straddling_an_interval_boundary_are_published(self):
        """Regression: the tracer lists a span when it *opens*, so a span
        longer than the control interval is still open when the publisher
        first sees it; it must stay pending and go out once it closes."""
        hub = TelemetryHub()
        sub = hub.subscribe(max_queue=100_000)
        result = run_spec(_tiny_spec(tracing=True), hub=hub)
        interval = result.config.planner.control_interval
        candidates = [
            s for s in result.extras["tracer"].spans
            if s.phase in ("queue_wait", "execute") and not s.truncated
        ]
        events = [e for e in sub.drain() if e.type == "spans"]
        published = [s for e in events for s in e.data["slowest"]]
        assert any(s["duration"] > interval for s in published)
        previous = 0.0
        for event in events:
            finished = sorted(
                (s for s in candidates if previous < s.end <= event.time),
                key=lambda s: s.duration,
                reverse=True,
            )[:SPANS_PER_EVENT]
            assert [(s["query_id"], s["phase"]) for s in event.data["slowest"]] == [
                (s.query_id, s.phase) for s in finished
            ], event.time
            previous = event.time
        keys = [(s["query_id"], s["phase"]) for s in published]
        assert len(keys) == len(set(keys))  # each span goes out once

    def test_publisher_reads_only_the_record_it_is_handed(self):
        """No lookup through the controller's telemetry, no dependence on
        another listener having run first: a publisher that knows only the
        planner, attached *before* the harness, still gets every record."""
        from types import SimpleNamespace

        from repro.experiments.runner import build_bundle, make_controller
        from repro.validation import attach_harness

        bundle = build_bundle(config=_tiny_config())
        scheduler = make_controller(bundle, "qs")
        hub = TelemetryHub()
        sub = hub.subscribe()
        publisher = RunPublisher(
            hub, bundle, SimpleNamespace(planner=scheduler.planner)
        )
        assert publisher.attach()
        attach_harness(bundle, mode="warn")
        scheduler.start()
        bundle.manager.start()
        bundle.run()
        events = [e for e in sub.drain() if e.type == "interval"]
        history = scheduler.planner.history
        assert len(events) == len(history) > 0
        for event, record in zip(events, history):
            assert event.record is record
            wire = event.to_dict()["data"]
            assert wire["record"] == record.to_dict()
            assert wire["record"]["interval_index"] == wire["interval_index"]
            assert wire["cost_limits"] == record.plan.as_dict()

    def test_static_controller_publishes_start_and_end_only(self):
        hub = TelemetryHub()
        sub = hub.subscribe()
        run_spec(_tiny_spec(controller="none"), hub=hub)
        types = [e.type for e in sub.drain()]
        assert types == ["snapshot", "run_end"]


class TestShardedPublishing:
    def _run(self, rebalance, shards=2):
        base = ExperimentSpec(controller="qs", config=_tiny_config())
        spec = ShardedExperimentSpec(
            base=base, shards=shards, rebalance=rebalance
        )
        hub = TelemetryHub()
        sub = hub.subscribe(max_queue=100_000)
        result = run_sharded(spec, jobs=1, hub=hub)
        return result, sub.drain()

    @pytest.mark.parametrize("rebalance", ["static", "interval"])
    def test_per_shard_completions_sum_to_merged_report(self, rebalance):
        result, events = self._run(rebalance)
        summed = {}
        for event in events:
            if event.type == "run_end" and event.shard is not None:
                for name, count in event.data["completions"].items():
                    summed[name] = summed.get(name, 0) + int(count)
        merged = {}
        for summary in result.summaries:
            for name, count in summary.class_completions.items():
                merged[name] = merged.get(name, 0) + int(count)
        assert summed == merged
        assert sum(summed.values()) == result.report.total_completions

    @pytest.mark.parametrize("rebalance", ["static", "interval"])
    def test_fleet_events_bracket_per_shard_events(self, rebalance):
        result, events = self._run(rebalance)
        assert events[0].type == "snapshot"
        assert events[0].data["shards"] == 2
        fleet_ends = [
            e for e in events if e.type == "run_end" and e.shard is None
        ]
        assert len(fleet_ends) == 1
        report = fleet_ends[0].data["report"]
        assert report["total_completions"] == result.report.total_completions
        shard_intervals = {
            e.shard for e in events if e.type == "interval"
        }
        assert shard_intervals == {0, 1}

    def test_interval_mode_publishes_each_resplit(self):
        result, events = self._run("interval")
        rebalances = [e for e in events if e.type == "shard_rebalance"]
        assert rebalances
        total = default_config().system_cost_limit
        for event in rebalances:
            assert event.data["mode"] == "interval"
            assert len(event.data["limits"]) == 2
            assert sum(event.data["limits"]) == pytest.approx(total)
        # The last published split is the run's final partition.
        assert rebalances[-1].data["limits"] == pytest.approx(
            result.final_cost_limits
        )

    def test_static_mode_publishes_split_once_at_start(self):
        result, events = self._run("static")
        rebalances = [e for e in events if e.type == "shard_rebalance"]
        assert len(rebalances) == 1
        assert rebalances[0].data["mode"] == "static"
        assert rebalances[0].time == 0.0
        assert rebalances[0].data["limits"] == pytest.approx(
            result.final_cost_limits
        )

    def test_sharded_results_identical_with_and_without_hub(self):
        base = ExperimentSpec(controller="qs", config=_tiny_config())
        with_hub, _ = self._run("static")
        without_hub = run_sharded(
            ShardedExperimentSpec(base=base, shards=2, rebalance="static"),
            jobs=1,
        )
        assert (
            with_hub.report.total_completions
            == without_hub.report.total_completions
        )
        assert with_hub.report.completions == without_hub.report.completions
        assert with_hub.report.attainment == pytest.approx(
            without_hub.report.attainment
        )

    def test_hub_with_parallel_jobs_rejected(self):
        base = ExperimentSpec(controller="qs", config=_tiny_config())
        spec = ShardedExperimentSpec(base=base, shards=2, rebalance="static")
        with pytest.raises(ConfigurationError):
            run_sharded(spec, jobs=2, hub=TelemetryHub())


class TestLiveServer:
    @pytest.fixture
    def served_hub(self):
        hub = TelemetryHub()
        server = LiveServer(hub).start()
        yield hub, server
        server.stop()

    def _get(self, server, path):
        with urllib.request.urlopen(server.url.rstrip("/") + path, timeout=10) as r:
            return r.status, r.headers, r.read()

    def test_port_is_bound_and_url_formed(self, served_hub):
        _, server = served_hub
        assert server.port > 0
        assert server.url == "http://127.0.0.1:{}/".format(server.port)
        assert server.running

    def test_snapshot_endpoint(self, served_hub):
        hub, server = served_hub
        hub.publish("interval", {"n": 7}, time=1.0, shard=0)
        status, headers, body = self._get(server, "/api/snapshot")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        snap = json.loads(body)
        assert snap["v"] == PROTOCOL_VERSION
        assert snap["shards"]["0"]["data"] == {"n": 7}

    def test_metrics_endpoint(self, served_hub):
        hub, server = served_hub
        registry = MetricsRegistry()
        registry.counter(
            "releases_total", description="Released", callback=lambda: 3
        )
        hub.register_registry(registry, shard=0)
        status, headers, body = self._get(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert 'releases_total{shard="0"} 3.0' in body.decode()

    def test_dashboard_html_served(self, served_hub):
        _, server = served_hub
        status, headers, body = self._get(server, "/")
        assert status == 200
        text = body.decode()
        assert "<!DOCTYPE html>" in text
        assert "EventSource" in text

    def test_unknown_path_404(self, served_hub):
        _, server = served_hub
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(server, "/nope")
        assert excinfo.value.code == 404

    def test_sse_stream_snapshot_then_events(self, served_hub):
        hub, server = served_hub
        hub.publish("interval", {"n": 1}, time=1.0, shard=0)
        request = urllib.request.Request(
            server.url + "events", headers={"Accept": "text/event-stream"}
        )
        stream = urllib.request.urlopen(request, timeout=10)
        try:
            assert stream.headers["Content-Type"].startswith("text/event-stream")
            first = stream.readline().decode()
            assert first == "event: snapshot\n"
            payload = json.loads(
                stream.readline().decode().split("data: ", 1)[1]
            )
            assert payload["snapshot"]["shards"]["0"]["data"] == {"n": 1}
            stream.readline()  # frame separator
            hub.publish("interval", {"n": 2}, time=2.0, shard=0)
            lines = [stream.readline().decode() for _ in range(3)]
            assert lines[0] == "event: interval\n"
            assert lines[1] == "id: 2\n"
            event = json.loads(lines[2].split("data: ", 1)[1])
            assert event["data"] == {"n": 2}
            assert event["v"] == PROTOCOL_VERSION
        finally:
            stream.close()

    def test_stop_is_idempotent_and_releases_port(self):
        hub = TelemetryHub()
        server = LiveServer(hub).start()
        port = server.port
        server.stop()
        server.stop()
        assert not server.running
        # The port can be rebound immediately (listener fully closed).
        rebound = LiveServer(hub, port=port).start()
        try:
            assert rebound.port == port
        finally:
            rebound.stop()

    def test_port_before_start_raises(self):
        server = LiveServer(TelemetryHub())
        with pytest.raises(RuntimeError):
            server.port


class TestCLIWiring:
    def test_run_parser_accepts_dashboard_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "run", "--dashboard", "--port", "0",
                "--port-file", "/tmp/p", "--linger", "2.5",
            ]
        )
        assert args.dashboard is True
        assert args.port == 0
        assert args.linger == 2.5

    def test_serve_parser_shares_run_options(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--backend", "sqlite", "--shards", "2", "--port", "0"]
        )
        assert args.func.__name__ == "_cmd_serve"
        assert args.backend == "sqlite"
        assert args.shards == 2
