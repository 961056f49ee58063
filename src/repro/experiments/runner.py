"""Builds complete deployments and runs the paper's experiments.

The assembly order mirrors the real deployment: an execution backend first
(simulated hardware + engine, or the real-time SQLite engine), Query
Patroller on top, workload clients connecting through QP, then one
*controller* — the Query Scheduler or a baseline — installed as QP's
release handler.

Backend selection flows through ``ExperimentSpec(backend=...)`` (or
``build_bundle(backend=...)``): the controller stack itself only ever sees
the :mod:`repro.runtime` protocols, so the same controller code drives
both substrates.

An :class:`ExperimentSpec` is the one description of a run and this module
holds the one assembly of it: :func:`assemble_run` builds and starts the
deployment, ``bundle.run(horizon)`` is the sole time-advancing call, and
:func:`finish_run` closes it into an :class:`ExperimentResult`.
:func:`run_spec` does the three in a row; the lockstep shard coordinator
does them for N deployments with its re-split between slices of ``run``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from math import inf
from typing import Any, Dict, List, Optional, Tuple

from repro.config import SimulationConfig, default_config
from repro.core.controllers import CONTROLLER_NAMES, CONTROLLERS
from repro.core.service_class import ServiceClass, paper_classes
from repro.errors import ConfigurationError
from repro.metrics.collector import MetricsCollector
from repro.patroller.patroller import QueryPatroller
from repro.runtime import BACKEND_NAMES, ExecutionEngine, TimerService, make_backend
from repro.sim.rng import RandomStreams
from repro.workloads.client import ClosedLoopClient
from repro.workloads.schedule import (
    ClientPoolManager,
    PeriodSchedule,
    constant_schedule,
    paper_schedule,
)
from repro.workloads.spec import QueryFactory, WorkloadMix
from repro.workloads.tpcc import tpcc_mix
from repro.workloads.tpch import tpch_mix


@dataclass
class SimulationBundle:
    """Everything that makes up one runnable deployment.

    ``sim`` is the backend's timer service and ``engine`` its execution
    engine (the pair :func:`~repro.runtime.make_backend` builds), and
    ``backend`` is that backend's name (``"sim"`` or ``"sqlite"``).
    """

    config: SimulationConfig
    sim: TimerService
    rng: RandomStreams
    engine: ExecutionEngine
    patroller: QueryPatroller
    factory: QueryFactory
    classes: List[ServiceClass]
    mixes: Dict[str, WorkloadMix]
    schedule: PeriodSchedule
    manager: ClientPoolManager
    collector: MetricsCollector
    backend: str
    controller: Optional[object] = None

    def historical_olap_costs(self) -> List[float]:
        """Exact template costs of the OLAP mixes (QP group calibration)."""
        costs: List[float] = []
        seen = set()
        for service_class in self.classes:
            if not service_class.directly_controlled:
                continue
            mix = self.mixes[service_class.name]
            if mix.name in seen:
                continue
            seen.add(mix.name)
            for template in mix.templates:
                costs.append(
                    self.engine.estimator.true_cost(
                        template.cpu_demand, template.io_demand
                    )
                )
        return costs

    def run(self, horizon: Optional[float] = None) -> None:
        """Run the deployment to its schedule horizon (or ``horizon``)."""
        end = horizon if horizon is not None else self.schedule.horizon
        self.sim.run_until(end)

    def close(self) -> None:
        """Release engine resources (idempotent; no-op for the sim)."""
        self.engine.close()


@dataclass
class ExperimentSpec:
    """One experiment, as data.

    The only description of a run: build a spec, tweak it with
    :meth:`with_overrides`, hand it to :func:`run_spec` (or wrap it in a
    ``RunRequest`` / ``ShardedExperimentSpec`` for batches and fleets).

    ``faults`` are behavioral :class:`~repro.faults.ScheduledFault`
    injections applied to the assembled bundle before the run starts (the
    scenario format's ``faults:`` section compiles to these).
    """

    controller: str = "qs"
    config: Optional[SimulationConfig] = None
    schedule: Optional[PeriodSchedule] = None
    classes: Optional[List[ServiceClass]] = None
    static_olap_limit: Optional[float] = None
    invariants: str = "off"
    tracing: bool = False
    backend: str = "sim"
    backend_options: Dict[str, Any] = field(default_factory=dict)
    horizon: Optional[float] = None
    faults: Tuple["ScheduledFault", ...] = ()  # noqa: F821

    def __post_init__(self) -> None:
        # Every spec owns its options: ``replace``/``with_overrides`` run
        # through here again, so two specs derived from one base can never
        # alias (and mutate) the same dict — scenario sweeps tweak
        # ``backend_options`` per run.
        self.backend_options = copy.deepcopy(self.backend_options)
        self.faults = tuple(self.faults)
        if self.horizon is not None and not 0 < self.horizon < inf:  # NaN too
            raise ConfigurationError(
                "horizon must be finite and > 0 (got {!r})".format(self.horizon)
            )

    def with_overrides(self, **changes: Any) -> "ExperimentSpec":
        """A copy with the given fields replaced (no shared mutable state)."""
        return replace(self, **changes)


@dataclass
class ExperimentResult:
    """Outcome of one experiment run."""

    controller_name: str
    config: SimulationConfig
    classes: List[ServiceClass]
    schedule: PeriodSchedule
    collector: MetricsCollector
    bundle: SimulationBundle
    extras: Dict[str, object] = field(default_factory=dict)

    def performance_series(self) -> Dict[str, List[Optional[float]]]:
        """Per-class goal-metric series (the Figures 4-6 payload)."""
        return {
            c.name: self.collector.performance_series(c) for c in self.classes
        }

    def goal_attainment(self) -> Dict[str, float]:
        """Per-class fraction of periods meeting the goal."""
        return {c.name: self.collector.goal_attainment(c) for c in self.classes}


def realtime_smoke_schedule(
    config: SimulationConfig, classes: List[ServiceClass]
) -> PeriodSchedule:
    """Default schedule for real-time backends: a light constant load.

    The paper schedule drives tens of clients for minutes of period time —
    fine in virtual time, not in wall-clock smoke runs.  This keeps one
    client per OLAP class and two per OLTP class over the configured
    number of (short) periods.
    """
    return constant_schedule(
        config.scale.period_seconds,
        config.scale.num_periods,
        {c.name: (1 if c.kind == "olap" else 2) for c in classes},
    )


def default_schedule(
    config: SimulationConfig,
    classes: List[ServiceClass],
    backend: str = "sim",
) -> PeriodSchedule:
    """The schedule a spec without an explicit one runs (backend-aware).

    The simulation backend gets the paper's Figure 3 schedule trimmed to
    the configured period count; real-time backends get the light
    :func:`realtime_smoke_schedule`.  Factored out of :func:`build_bundle`
    so harnesses that pre-partition schedules (the sharded control plane)
    resolve exactly the schedule a plain run would.
    """
    if backend != "sim":
        return realtime_smoke_schedule(config, classes)
    schedule = paper_schedule(config.scale.period_seconds)
    if schedule.num_periods != config.scale.num_periods:
        schedule = PeriodSchedule(
            config.scale.period_seconds,
            {
                name: series[: config.scale.num_periods]
                for name, series in schedule.counts.items()
            },
        )
    return schedule


def build_bundle(
    config: Optional[SimulationConfig] = None,
    schedule: Optional[PeriodSchedule] = None,
    classes: Optional[List[ServiceClass]] = None,
    mixes: Optional[Dict[str, WorkloadMix]] = None,
    backend: str = "sim",
    backend_options: Optional[Dict[str, Any]] = None,
) -> SimulationBundle:
    """Assemble backend, patroller, workloads and metrics (no controller yet).

    ``backend`` selects the execution substrate (see
    :data:`repro.runtime.BACKEND_NAMES`); ``backend_options`` pass through
    to the engine constructor.  With a real-time backend and no explicit
    ``schedule``, :func:`realtime_smoke_schedule` is used — the paper
    schedule's client counts are sized for virtual time.
    """
    config = (config or default_config()).validate()
    classes = list(classes) if classes is not None else list(paper_classes())
    if schedule is None:
        schedule = default_schedule(config, classes, backend)
    if mixes is None:
        olap = tpch_mix()
        oltp = tpcc_mix()
        mixes = {}
        for service_class in classes:
            mixes[service_class.name] = olap if service_class.kind == "olap" else oltp
    missing = [c.name for c in classes if c.name not in mixes]
    if missing:
        raise ConfigurationError("no workload mix for classes {}".format(missing))
    unknown = [name for name in schedule.counts if name not in {c.name for c in classes}]
    if unknown:
        raise ConfigurationError("schedule covers unknown classes {}".format(unknown))

    rng = RandomStreams(config.seed)
    sim, engine = make_backend(backend, config, rng, **(backend_options or {}))
    patroller = QueryPatroller(sim, engine, config.patroller)
    factory = QueryFactory(engine.estimator, rng)
    collector = MetricsCollector(patroller, schedule, classes)

    def client_builder(class_name: str, client_id: str) -> ClosedLoopClient:
        return ClosedLoopClient(
            sim=sim,
            patroller=patroller,
            factory=factory,
            mix=mixes[class_name],
            class_name=class_name,
            client_id=client_id,
            think_time=config.scale.think_time,
        )

    manager = ClientPoolManager(sim, schedule, client_builder)
    return SimulationBundle(
        config=config,
        sim=sim,
        rng=rng,
        engine=engine,
        patroller=patroller,
        factory=factory,
        classes=classes,
        mixes=mixes,
        schedule=schedule,
        manager=manager,
        collector=collector,
        backend=backend,
    )


def make_controller(
    bundle: SimulationBundle,
    name: str,
    static_olap_limit: Optional[float] = None,
) -> object:
    """Build the named entry of :data:`~repro.core.controllers.CONTROLLERS`
    (which documents each name) and attach it to the bundle."""
    if name not in CONTROLLERS:
        raise ConfigurationError(
            "unknown controller {!r}; expected one of {}".format(name, CONTROLLER_NAMES)
        )
    build, _ = CONTROLLERS[name]
    bundle.controller = build(bundle, static_olap_limit)
    return bundle.controller


def assemble_run(
    spec: ExperimentSpec,
    hub: Optional["TelemetryHub"] = None,  # noqa: F821
    shard: Optional[int] = None,
) -> ExperimentResult:
    """Build, wire and start the deployment ``spec`` describes.

    Returns the (not yet run) result: its ``bundle`` is started and ready
    for ``bundle.run(horizon)``, and its ``extras`` already hold every
    observer that rides along.  The caller owns the bundle from here —
    advance it, then hand the result to :func:`finish_run` (or close the
    bundle if the run fails).  A failure during assembly closes the
    backend before propagating.

    Every plan listener is handed the interval's one
    :class:`~repro.metrics.telemetry.ControlIntervalRecord`, and the hub
    publisher passes on that object, not a rendering of it: the order the
    listeners attach in does not matter.
    """
    if spec.backend not in BACKEND_NAMES:
        raise ConfigurationError(
            "unknown backend {!r}; expected one of {}".format(
                spec.backend, BACKEND_NAMES
            )
        )
    bundle = build_bundle(
        config=spec.config,
        schedule=spec.schedule,
        classes=spec.classes,
        backend=spec.backend,
        backend_options=dict(spec.backend_options),
    )
    result = ExperimentResult(
        controller_name=spec.controller,
        config=bundle.config,
        classes=bundle.classes,
        schedule=bundle.schedule,
        collector=bundle.collector,
        bundle=bundle,
    )
    extras = result.extras
    try:
        built = make_controller(
            bundle, spec.controller, static_olap_limit=spec.static_olap_limit
        )
        if hasattr(built, "planner"):  # qs, qs_detect, direct
            built.planner.add_plan_listener(bundle.collector.on_plan)
            extras["telemetry"] = built.telemetry
            extras["metrics_registry"] = built.registry
        tracer = None
        if spec.tracing:
            from repro.obs.tracer import QueryTracer

            tracer = extras["tracer"] = QueryTracer(
                clock=bundle.sim,
                patroller=bundle.patroller,
                schedule=bundle.schedule,
            )
        if spec.invariants != "off":
            from repro.validation.harness import attach_harness

            extras["validation"] = attach_harness(bundle, mode=spec.invariants)
        if hub is not None:
            from repro.obs.live.publish import RunPublisher

            publisher = extras["live_publisher"] = RunPublisher(
                hub, bundle, built, shard=shard, tracer=tracer
            )
            publisher.attach()
            if shard is None:
                publisher.publish_start()
        built.start()
        bundle.manager.start()
        if spec.faults:
            from repro.faults import FaultInjector

            injector = extras["faults"] = FaultInjector(bundle)
            for fault in spec.faults:
                injector.apply(fault)
    except BaseException:
        bundle.close()
        raise
    return result


def finish_run(result: ExperimentResult) -> ExperimentResult:
    """Close an assembled deployment after its last ``bundle.run`` call.

    Closes the backend (real-time backends stop their worker threads and
    remove the database; the collected metrics remain readable), finalises
    the tracer and publishes the deployment's ``run_end`` event.
    """
    result.bundle.close()
    tracer = result.extras.get("tracer")
    if tracer is not None:
        tracer.finalize()
    publisher = result.extras.get("live_publisher")
    if publisher is not None:
        publisher.publish_end(result)
    return result


def run_spec(
    spec: ExperimentSpec,
    hub: Optional["TelemetryHub"] = None,  # noqa: F821
    shard: Optional[int] = None,
) -> ExperimentResult:
    """Run one full scheduled experiment described by ``spec``.

    Assemble (:func:`assemble_run`), advance to ``spec.horizon`` (default:
    the schedule horizon), finish (:func:`finish_run`).

    ``spec.invariants`` selects the runtime validation mode: ``"off"`` (no
    harness), ``"warn"`` (check at every control interval, record
    violations into telemetry) or ``"strict"`` (additionally raise
    :class:`~repro.errors.InvariantViolation` on the first ERROR-or-worse
    violation).  The attached harness rides along in
    ``result.extras["validation"]``.

    ``spec.tracing`` attaches a :class:`~repro.obs.QueryTracer` that
    records one balanced span per query lifecycle phase; it rides along
    (finalised) in ``result.extras["tracer"]``.

    ``hub`` optionally attaches a
    :class:`~repro.obs.live.TelemetryHub`: a
    :class:`~repro.obs.live.RunPublisher` then streams one ``interval``
    event per control interval (plus ``spans``/``run_end``) tagged with
    ``shard``.  The hub is deliberately *not* a spec field — specs stay
    picklable for the parallel runners, hubs carry live threads.
    Publishing is observation-only: results are bit-identical with or
    without a hub.

    Real-time backends are closed (worker threads stopped, database
    removed) before this returns, even on failure; the collected metrics
    remain readable afterwards.
    """
    result = assemble_run(spec, hub=hub, shard=shard)
    try:
        result.bundle.run(horizon=spec.horizon)
    except BaseException:
        result.bundle.close()
        raise
    return finish_run(result)
