"""Tests for span export: JSONL and Chrome trace-event JSON."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs.export import (
    load_chrome_trace,
    load_spans,
    load_spans_jsonl,
    save_chrome_trace,
    save_spans_jsonl,
    spans_to_chrome,
    spans_to_jsonl,
)
from repro.obs.spans import Span
from tests.conftest import FailingToDict, assert_export_untouched, precious_target


def make_spans():
    spans = [
        Span(query_id=1, class_name="class1", phase="intercept", begin=0.0,
             template="q1", kind="olap", estimated_cost=900.0, period=0),
        Span(query_id=1, class_name="class1", phase="queue_wait", begin=0.5,
             template="q1", kind="olap", estimated_cost=900.0, period=0),
        Span(query_id=1, class_name="class1", phase="execute", begin=4.0,
             template="q1", kind="olap", estimated_cost=900.0, period=0),
        Span(query_id=2, class_name="class2", phase="intercept", begin=1.0,
             template="q2", kind="olap", estimated_cost=100.0, period=0),
        Span(query_id=2, class_name="class2", phase="cancelled", begin=2.0,
             template="q2", kind="olap", estimated_cost=100.0, period=0),
    ]
    spans[0].close(0.5)
    spans[1].close(4.0)
    spans[2].close(9.0, truncated=True)
    spans[3].close(2.0)
    spans[4].close(2.0)
    return spans


class TestJsonl:
    def test_text_is_one_line_per_span(self):
        spans = make_spans()
        text = spans_to_jsonl(spans)
        lines = text.strip().splitlines()
        assert len(lines) == len(spans)
        assert json.loads(lines[0])["class"] == "class1"

    def test_roundtrip_is_lossless(self, tmp_path):
        spans = make_spans()
        path = str(tmp_path / "spans.jsonl")
        save_spans_jsonl(spans, path)
        assert load_spans_jsonl(path) == spans


class TestChrome:
    def test_document_shape(self):
        document = spans_to_chrome(make_spans())
        events = document["traceEvents"]
        assert isinstance(events, list) and events
        metadata = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        # One process-name metadata event per class.
        assert {m["args"]["name"] for m in metadata} == {"class1", "class2"}
        assert len(complete) == 4
        assert len(instants) == 1
        assert instants[0]["name"] == "cancelled"

    def test_timestamps_are_microseconds(self):
        events = spans_to_chrome(make_spans())["traceEvents"]
        execute = next(e for e in events if e["name"] == "execute")
        assert execute["ts"] == pytest.approx(4.0e6)
        assert execute["dur"] == pytest.approx(5.0e6)
        assert execute["args"]["truncated"] is True

    def test_queries_are_threads_classes_are_processes(self):
        events = spans_to_chrome(make_spans())["traceEvents"]
        spans_q1 = [e for e in events if e.get("args", {}).get("query_id") == 1]
        assert {e["tid"] for e in spans_q1} == {1}
        assert len({e["pid"] for e in spans_q1}) == 1

    def test_roundtrip_preserves_identity(self, tmp_path):
        spans = make_spans()
        path = str(tmp_path / "trace.json")
        save_chrome_trace(spans, path)
        loaded = load_chrome_trace(path)
        assert len(loaded) == len(spans)
        by_key = {(s.query_id, s.phase): s for s in loaded}
        for original in spans:
            restored = by_key[(original.query_id, original.phase)]
            assert restored.class_name == original.class_name
            assert restored.begin == pytest.approx(original.begin)
            assert restored.end == pytest.approx(original.end)
            assert restored.template == original.template
            assert restored.estimated_cost == original.estimated_cost
            assert restored.period == original.period
            assert restored.truncated == original.truncated

    def test_non_trace_document_rejected(self, tmp_path):
        path = str(tmp_path / "other.json")
        with open(path, "w") as handle:
            json.dump({"results": []}, handle)
        with pytest.raises(ConfigurationError):
            load_chrome_trace(path)


class TestLoadSpansDispatch:
    def test_jsonl_suffix(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        save_spans_jsonl(make_spans(), path)
        assert len(load_spans(path)) == 5

    def test_json_suffix_is_chrome(self, tmp_path):
        path = str(tmp_path / "trace.json")
        save_chrome_trace(make_spans(), path)
        assert len(load_spans(path)) == 5

    def test_directory_prefers_spans_jsonl(self, tmp_path):
        save_spans_jsonl(make_spans(), str(tmp_path / "spans.jsonl"))
        save_chrome_trace(make_spans()[:2], str(tmp_path / "trace.json"))
        assert len(load_spans(str(tmp_path))) == 5

    def test_directory_falls_back_to_trace_json(self, tmp_path):
        save_chrome_trace(make_spans(), str(tmp_path / "trace.json"))
        assert len(load_spans(str(tmp_path))) == 5

    def test_directory_with_single_export_file(self, tmp_path):
        save_spans_jsonl(make_spans(), str(tmp_path / "myrun.jsonl"))
        assert len(load_spans(str(tmp_path))) == 5

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_spans(str(tmp_path))


class TestOverwriteGuards:
    def test_spans_jsonl_refuses_existing_file(self, tmp_path):
        from repro.errors import ExportError

        path = tmp_path / "spans.jsonl"
        path.write_text("precious\n")
        with pytest.raises(ExportError, match="overwrite"):
            save_spans_jsonl(make_spans(), str(path))
        assert path.read_text() == "precious\n"
        save_spans_jsonl(make_spans(), str(path), overwrite=True)
        assert load_spans(str(path))

    def test_chrome_trace_refuses_existing_file(self, tmp_path):
        from repro.errors import ExportError

        path = tmp_path / "trace.json"
        path.write_text("precious\n")
        with pytest.raises(ExportError, match="overwrite"):
            save_chrome_trace(make_spans(), str(path))
        assert path.read_text() == "precious\n"
        save_chrome_trace(make_spans(), str(path), overwrite=True)
        assert load_spans(str(path))


class TestSaveSpansJsonlStreams:
    def many_spans(self, count=3000):
        spans = []
        for index in range(count):
            span = Span(query_id=index, class_name="class{}".format(index % 8),
                        phase="execute", begin=index * 0.25, template="q{}".format(index % 22),
                        kind="olap", estimated_cost=100.0 + index, period=index // 500)
            spans.append(span.close(index * 0.25 + 1.0, truncated=index % 97 == 0))
        return spans

    def test_file_is_spans_to_jsonl_byte_for_byte(self, tmp_path):
        spans = self.many_spans()
        path = tmp_path / "spans.jsonl"
        save_spans_jsonl(spans, str(path))
        assert path.read_bytes() == spans_to_jsonl(spans).encode()

    def test_peak_memory_does_not_grow_with_the_span_count(self, tmp_path):
        import tracemalloc

        spans = self.many_spans()
        path = tmp_path / "spans.jsonl"
        tracemalloc.start()
        try:
            save_spans_jsonl(spans, str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 8, (peak, path.stat().st_size)

    @pytest.mark.parametrize("existing", [False, True])
    def test_a_span_that_fails_leaves_the_target_as_it_was(self, tmp_path, existing):
        spans = make_spans()[:2] + [FailingToDict()] + make_spans()[2:]
        path = precious_target(tmp_path / "spans.jsonl", existing)
        with pytest.raises(RuntimeError, match="to_dict failed"):
            save_spans_jsonl(spans, str(path), overwrite=True)
        assert_export_untouched(path, existing)
