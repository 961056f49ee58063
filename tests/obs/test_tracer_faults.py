"""Span balance under injected faults.

The tracer's headline guarantee is that the trace balances on *any* run,
including hostile ones: cancel storms abandon queued queries mid-phase and
dropped completion callbacks starve the dispatcher's accounting.  The
tracer holds its own subscription to the patroller's ``completed`` event,
so neither fault may leak an open span.
"""

from repro.faults import FaultInjector
from repro.obs.tracer import QueryTracer

from tests.validation.conftest import make_qs_bundle


def traced_bundle(**kwargs):
    bundle = make_qs_bundle(**kwargs)
    tracer = QueryTracer(
        clock=bundle.sim,
        patroller=bundle.patroller,
        schedule=bundle.schedule,
    )
    return bundle, tracer


def run_to_completion(bundle, tracer):
    bundle.controller.start()
    bundle.manager.start()
    bundle.run()
    tracer.finalize()


def test_clean_run_is_balanced():
    bundle, tracer = traced_bundle()
    run_to_completion(bundle, tracer)
    assert tracer.balanced
    assert tracer.validate() == []
    assert tracer.spans


def test_cancel_storm_keeps_spans_balanced():
    bundle, tracer = traced_bundle()
    injector = FaultInjector(bundle)
    injector.arrival_burst("class1", count=12, delay=4.0)
    injector.cancel_storm(delay=8.0)  # cancel everything queued
    injector.cancel_storm(class_name="class2", fraction=0.5, delay=20.0)
    run_to_completion(bundle, tracer)

    assert tracer.balanced
    assert tracer.validate() == []
    # The storm really cancelled queries, and each one got its terminal
    # marker.
    cancelled = sum(
        f.get("cancelled", 0)
        for f in injector.injected
        if f["fault"] == "cancel_storm"
    )
    markers = [s for s in tracer.spans if s.phase == "cancelled"]
    assert cancelled > 0
    assert len(markers) == cancelled
    for marker in markers:
        assert marker.begin == marker.end


def test_dropped_dispatcher_completions_cannot_leak_spans():
    bundle, tracer = traced_bundle()
    injector = FaultInjector(bundle)
    injector.drop_completions(count=3, delay=2.0)
    run_to_completion(bundle, tracer)

    assert tracer.balanced
    assert tracer.validate() == []
    dropped = [f for f in injector.injected if f["fault"] == "drop_completions"]
    assert dropped and dropped[0]["count"] == 3


def test_release_jitter_keeps_spans_ordered():
    bundle, tracer = traced_bundle()
    FaultInjector(bundle).release_latency_jitter(release_latency=0.5, delay=5.0)
    run_to_completion(bundle, tracer)
    assert tracer.balanced
    assert tracer.validate() == []
