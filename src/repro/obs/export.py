"""Span export: JSONL and Chrome trace-event JSON.

Two interchange formats:

* **JSONL** — one :meth:`Span.to_dict` per line; lossless, round-trips
  through :func:`load_spans_jsonl`.
* **Chrome trace-event JSON** — a ``{"traceEvents": [...]}`` document
  loadable in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.
  Each service class renders as one process (named via metadata events),
  each query as one thread within it, lifecycle spans as complete events
  (``"ph": "X"``) and terminal ``cancelled`` markers as instant events
  (``"ph": "i"``).  Sim seconds map to trace microseconds.

:func:`load_spans` dispatches on path shape (directory / ``.jsonl`` /
``.json``) so the ``repro spans`` command can summarise either format.
A missing or malformed file, or a directory without an export, raises
:class:`~repro.errors.ConfigurationError` naming the path.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Sequence

from repro.errors import ConfigurationError
from repro.metrics.export import open_export
from repro.obs.spans import Span, TERMINAL_PHASES

#: Trace-event timestamps are microseconds; sim time is seconds.
_US = 1e6


def spans_to_jsonl(spans: Sequence[Span]) -> str:
    """All spans as JSON Lines text (one span per line)."""
    return "".join(json.dumps(span.to_dict()) + "\n" for span in spans)


def save_spans_jsonl(
    spans: Sequence[Span], path: str, overwrite: bool = False
) -> None:
    """Stream :func:`spans_to_jsonl`'s bytes to ``path``, one span at a time.

    Raises :class:`~repro.errors.ExportError` when ``path`` exists and
    ``overwrite`` is False — multi-shard runs exporting into one
    directory must never silently truncate a sibling's spans.  Atomic:
    :func:`repro.metrics.export.open_export`.
    """
    with open_export(path, overwrite) as handle:
        for span in spans:
            handle.write(json.dumps(span.to_dict()) + "\n")


def _open(path: str):
    try:
        return open(path)
    except OSError as exc:
        raise ConfigurationError(
            "spans file {!r}: cannot read ({})".format(path, exc.strerror or exc)
        ) from None


def load_spans_jsonl(path: str) -> List[Span]:
    """Read back a JSONL export; a bad line is named by its 1-based number."""
    spans: List[Span] = []
    with _open(path) as handle:
        for number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                spans.append(Span.from_dict(json.loads(line)))
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigurationError(
                    "spans file {!r}, line {}: not a span ({}: {})".format(
                        path, number, type(exc).__name__, exc
                    )
                ) from None
    return spans


def spans_to_chrome(spans: Sequence[Span]) -> Dict:
    """Spans as a Chrome trace-event document (Perfetto-loadable dict)."""
    events: List[Dict] = []
    class_pids: Dict[str, int] = {}
    for span in spans:
        pid = class_pids.get(span.class_name)
        if pid is None:
            pid = len(class_pids) + 1
            class_pids[span.class_name] = pid
            events.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "name": "process_name",
                    "args": {"name": span.class_name},
                }
            )
        args = {
            "query_id": span.query_id,
            "class": span.class_name,
            "template": span.template,
            "kind": span.kind,
            "estimated_cost": span.estimated_cost,
            "period": span.period,
            "truncated": span.truncated,
            # Exact sim-time endpoints: ts/dur are microsecond-rounded for
            # the viewer, which is lossy enough to create phantom overlaps
            # on reload.
            "begin": span.begin,
            "end": span.end,
        }
        base = {
            "pid": pid,
            "tid": span.query_id,
            "ts": span.begin * _US,
            "name": span.phase,
            "cat": span.class_name,
            "args": args,
        }
        if span.phase in TERMINAL_PHASES:
            base.update({"ph": "i", "s": "t"})
        else:
            end = span.end if span.end is not None else span.begin
            base.update({"ph": "X", "dur": (end - span.begin) * _US})
        events.append(base)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def save_chrome_trace(
    spans: Sequence[Span], path: str, overwrite: bool = False
) -> None:
    """Write the Chrome trace-event document to ``path`` as JSON.

    Same overwrite protection as :func:`save_spans_jsonl`.
    """
    with open_export(path, overwrite) as handle:
        json.dump(spans_to_chrome(spans), handle)


def load_chrome_trace(path: str) -> List[Span]:
    """Rebuild spans from a Chrome trace-event export.

    Only events this module wrote are understood (complete events carry
    their full span identity in ``args``); metadata events are skipped.
    """
    with _open(path) as handle:
        try:
            document = json.load(handle)
        except ValueError as exc:
            raise ConfigurationError(
                "spans file {!r}: not valid JSON ({})".format(path, exc)
            ) from None
    events = document.get("traceEvents") if isinstance(document, dict) else None
    if not isinstance(events, list):
        raise ConfigurationError(
            "spans file {!r}: not a trace-event document (no traceEvents list)".format(path)
        )
    spans: List[Span] = []
    for event in events:
        phase = event.get("ph")
        if phase not in ("X", "i"):
            continue
        args = event.get("args", {})
        if "begin" in args:
            begin = float(args["begin"])
            end = begin if args.get("end") is None else float(args["end"])
        else:
            begin = event["ts"] / _US
            if phase == "X":
                end = begin + event.get("dur", 0.0) / _US
            else:
                end = begin
        span = Span(
            query_id=int(args.get("query_id", event.get("tid", 0))),
            class_name=args.get("class", event.get("cat", "")),
            phase=event["name"],
            begin=begin,
            template=args.get("template", ""),
            kind=args.get("kind", ""),
            estimated_cost=float(args.get("estimated_cost", 0.0)),
            period=args.get("period"),
        )
        span.close(end, truncated=bool(args.get("truncated", False)))
        spans.append(span)
    return spans


def load_spans(path: str) -> List[Span]:
    """Load spans from a JSONL file, a trace-event JSON, or a directory.

    A directory is searched for ``spans.jsonl`` first, then ``trace.json``,
    then any single ``*.jsonl`` / ``*.json`` file it contains.
    """
    if os.path.isdir(path):
        for name in ("spans.jsonl", "trace.json"):
            candidate = os.path.join(path, name)
            if os.path.exists(candidate):
                return load_spans(candidate)
        entries = sorted(os.listdir(path))
        for suffix in (".jsonl", ".json"):
            matches = [e for e in entries if e.endswith(suffix)]
            if len(matches) == 1:
                return load_spans(os.path.join(path, matches[0]))
        raise ConfigurationError(
            "spans directory {!r}: no spans.jsonl or trace.json found".format(path)
        )
    if path.endswith(".jsonl"):
        return load_spans_jsonl(path)
    return load_chrome_trace(path)
