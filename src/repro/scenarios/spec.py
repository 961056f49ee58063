"""The scenario data model: schema, validation, and compilation.

A *scenario* is a declarative, versioned description of one complete
experiment — workload classes with SLOs, a per-class client-count curve
per period, controller and backend choice, invariant mode, configuration
overrides, and scheduled behavioral fault injections.  Scenarios load
from YAML (:mod:`repro.scenarios.loader`), validate structurally here,
and compile to the existing :class:`~repro.experiments.runner.ExperimentSpec`
via :func:`to_experiment_spec` — the run path itself is unchanged, so
scenario runs share every guarantee (determinism, golden data,
invariants) of :func:`~repro.experiments.runner.run_spec`.

The mapping layer is loss-free by construction:
``scenario_from_mapping(scenario_to_mapping(spec)) == spec`` for every
valid spec, which is what the library round-trip tests pin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from repro.config import SimulationConfig, WorkloadScaleConfig, default_config
from repro.core.service_class import ResponseTimeGoal, ServiceClass, VelocityGoal
from repro.errors import ConfigurationError, ScenarioError
from repro.scenarios.generators import GENERATORS, resolve_generator
from repro.workloads.schedule import PeriodSchedule

if TYPE_CHECKING:
    from repro.faults import ScheduledFault

#: The scenario format version this package reads and writes.
SCENARIO_FORMAT_VERSION = 1

#: Period length (seconds) scenarios are scaled down to by ``smoke=True``.
SMOKE_PERIOD_SECONDS = 8.0

_TOP_LEVEL_KEYS = (
    "scenario",
    "name",
    "description",
    "seed",
    "controller",
    "backend",
    "backend_options",
    "invariants",
    "horizon",
    "schedule",
    "control",
    "classes",
    "faults",
    "shards",
)

_SHARD_KEYS = ("count", "router", "rebalance", "seed_stride")

_CLASS_KEYS = ("name", "kind", "goal", "importance", "clients")

#: Allowed YAML keys per fault kind (beyond ``kind``/``at``/``at_period``).
_FAULT_PARAM_KEYS = {
    "cancel_storm": ("class", "fraction"),
    "arrival_burst": ("class", "count"),
    "release_latency_jitter": ("release_latency",),
    "drop_completions": ("count", "class"),
}

#: Fault parameters the injector has no default for.
_REQUIRED_FAULT_PARAMS = {
    "arrival_burst": ("class", "count"),
    "release_latency_jitter": ("release_latency",),
}

#: Configuration paths a scenario may *not* override via ``control:`` —
#: they are owned by the scenario's own first-class fields.
_RESERVED_CONTROL_PATHS = ("seed", "scale.period_seconds", "scale.num_periods")


def _require(mapping: Mapping, key: str, context: str):
    if key not in mapping:
        raise ScenarioError("{}: missing required key {!r}".format(context, key))
    return mapping[key]


def _integer(value, context: str, minimum: Optional[int] = None) -> int:
    """``value`` if it is an integer (of at least ``minimum``); a bool, a
    float or a string is refused (``int()`` would truncate or parse it)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError("{} must be an integer, got {!r}".format(context, value))
    if minimum is not None and value < minimum:
        raise ScenarioError("{} must be >= {}, got {!r}".format(context, minimum, value))
    return value


def _number(value, context: str) -> float:
    """``value`` as a float if it is a finite int or float (not a bool)."""
    finite = isinstance(value, (int, float)) and math.isfinite(value)
    if isinstance(value, bool) or not finite:
        raise ScenarioError("{} must be a finite number, got {!r}".format(context, value))
    return float(value)


def _check_float_range(value, context: str) -> None:
    """Refuse any integer under ``value`` that ``float()`` cannot hold.

    Every number in a scenario ends up in float arithmetic somewhere (a
    schedule, a utility, a generator), where an integer beyond the float
    range raises ``OverflowError`` mid-load or mid-run.  ``control:``
    keys are dotted override paths, named as the override errors name them.
    """
    if isinstance(value, Mapping):
        for key, item in value.items():
            if context == "control":
                inner = "control override {!r}".format(key)
            else:
                inner = "{}.{}".format(context, key) if context else str(key)
            _check_float_range(item, inner)
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _check_float_range(item, "{}[{}]".format(context, index))
    elif isinstance(value, int) and not isinstance(value, bool):
        try:
            float(value)
        except OverflowError:
            raise ScenarioError(
                "{}: a {}-bit integer is too large for a float".format(
                    context, value.bit_length()
                )
            )


def _check_keys(mapping: Mapping, allowed, context: str) -> None:
    if not isinstance(mapping, Mapping):
        raise ScenarioError("{}: expected a mapping, got {!r}".format(
            context, type(mapping).__name__))
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ScenarioError(
            "{}: unknown keys {}; allowed: {}".format(
                context, unknown, sorted(allowed)
            )
        )


@dataclass(frozen=True)
class ClientCurve:
    """One class's per-period client counts: explicit or generated.

    Exactly one of ``counts`` (explicit per-period list) or ``generator``
    (+ ``params``) is set; :meth:`resolve` yields the concrete counts
    either way.  The generator form is kept symbolic so a scenario
    round-trips without losing the curve's intent.
    """

    counts: Optional[Tuple[int, ...]] = None
    generator: Optional[str] = None
    params: Mapping = field(default_factory=dict)

    def validate(self, context: str) -> None:
        if (self.counts is None) == (self.generator is None):
            raise ScenarioError(
                "{}: a curve is either an explicit count list or a "
                "generator mapping".format(context)
            )
        if self.counts is not None:
            if not self.counts:
                raise ScenarioError("{}: empty client count list".format(context))
            if any(c < 0 for c in self.counts):
                raise ScenarioError("{}: negative client count".format(context))
        elif self.generator not in GENERATORS:
            raise ScenarioError(
                "{}: unknown generator {!r}; expected one of {}".format(
                    context, self.generator,
                    sorted(set(GENERATORS) - {"flash-crowd"}),
                )
            )

    def resolve(self, num_periods: int) -> Tuple[int, ...]:
        """Concrete per-period counts for a schedule of ``num_periods``."""
        if self.counts is not None:
            if len(self.counts) != num_periods:
                raise ScenarioError(
                    "explicit curve has {} periods, schedule has {}".format(
                        len(self.counts), num_periods
                    )
                )
            return self.counts
        return tuple(resolve_generator(self.generator, self.params, num_periods))

    def to_value(self):
        """The YAML value form (list, or generator mapping)."""
        if self.counts is not None:
            return [int(c) for c in self.counts]
        value = {"generator": self.generator}
        value.update(self.params)
        return value

    @staticmethod
    def from_value(value, context: str) -> "ClientCurve":
        """Parse a YAML ``clients:`` value (list, int, or generator map)."""
        if isinstance(value, bool):
            raise ScenarioError("{}: clients cannot be a boolean".format(context))
        if isinstance(value, int):
            value = {"generator": "constant", "value": value}
        if isinstance(value, (list, tuple)):
            counts = tuple(_integer(c, "{}: client count".format(context)) for c in value)
            curve = ClientCurve(counts=counts)
        elif isinstance(value, Mapping):
            if "generator" not in value:
                raise ScenarioError(
                    "{}: a clients mapping needs a 'generator' key".format(context)
                )
            params = {k: v for k, v in value.items() if k != "generator"}
            name = str(value["generator"]).replace("-", "_")
            curve = ClientCurve(generator=name, params=params)
        else:
            raise ScenarioError(
                "{}: clients must be a list, an integer, or a generator "
                "mapping".format(context)
            )
        curve.validate(context)
        return curve


@dataclass(frozen=True)
class ShardPlan:
    """The scenario's ``shards:`` block: how the deployment scales out.

    Compiles (with the rest of the scenario) to a
    :class:`~repro.shard.spec.ShardedExperimentSpec`; ``count: 1`` is the
    unsharded deployment and round-trips like any other block.
    """

    count: int
    router: str = "hash"
    rebalance: str = "static"
    seed_stride: int = 1000

    def validate(self, context: str = "shards") -> None:
        from repro.shard.router import ROUTER_NAMES
        from repro.shard.spec import REBALANCE_MODES

        _integer(self.count, "{}: count".format(context), 1)
        if self.router not in ROUTER_NAMES:
            raise ScenarioError(
                "{}: unknown router {!r}; expected one of {}".format(
                    context, self.router, ROUTER_NAMES
                )
            )
        if self.rebalance not in REBALANCE_MODES:
            raise ScenarioError(
                "{}: unknown rebalance mode {!r}; expected one of {}".format(
                    context, self.rebalance, REBALANCE_MODES
                )
            )
        _integer(self.seed_stride, "{}: seed_stride".format(context), 1)

    def to_mapping(self) -> Dict[str, Any]:
        mapping: Dict[str, Any] = {"count": self.count}
        if self.router != "hash":
            mapping["router"] = self.router
        if self.rebalance != "static":
            mapping["rebalance"] = self.rebalance
        if self.seed_stride != 1000:
            mapping["seed_stride"] = self.seed_stride
        return mapping

    @staticmethod
    def from_value(value, context: str = "shards") -> "ShardPlan":
        """Parse the YAML ``shards:`` value (mapping, or a bare count)."""
        if isinstance(value, bool):
            raise ScenarioError("{}: cannot be a boolean".format(context))
        if isinstance(value, int):
            value = {"count": value}
        _check_keys(value, _SHARD_KEYS, context)
        plan = ShardPlan(
            count=_require(value, "count", context),
            router=str(value.get("router", "hash")),
            rebalance=str(value.get("rebalance", "static")),
            seed_stride=value.get("seed_stride", 1000),
        )
        plan.validate(context)
        return plan


@dataclass(frozen=True)
class ScenarioClass:
    """One workload class: SLO, importance, and its client curve."""

    name: str
    kind: str
    goal_metric: str
    goal_value: float
    importance: float
    clients: ClientCurve

    def service_class(self) -> ServiceClass:
        """The live :class:`ServiceClass` (validates goal/kind pairing)."""
        goals = {"velocity": VelocityGoal, "response_time": ResponseTimeGoal}
        if self.goal_metric not in goals:
            raise ScenarioError(
                "class {!r}: unknown goal metric {!r}; expected 'velocity' "
                "or 'response_time'".format(self.name, self.goal_metric)
            )
        try:
            goal = goals[self.goal_metric](self.goal_value)
            return ServiceClass(self.name, self.kind, goal, self.importance)
        except ConfigurationError as exc:
            raise ScenarioError("class {!r}: {}".format(self.name, exc))

    def to_mapping(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "goal": {self.goal_metric: self.goal_value},
            "importance": self.importance,
            "clients": self.clients.to_value(),
        }

    @staticmethod
    def from_mapping(mapping: Mapping) -> "ScenarioClass":
        if not isinstance(mapping, Mapping):
            raise ScenarioError(
                "classes: each entry must be a mapping, got {!r}".format(mapping)
            )
        context = "class {!r}".format(mapping.get("name", "?"))
        _check_keys(mapping, _CLASS_KEYS, context)
        name = str(_require(mapping, "name", context))
        goal = _require(mapping, "goal", context)
        if not isinstance(goal, Mapping) or len(goal) != 1:
            raise ScenarioError(
                "{}: goal must be a one-entry mapping like "
                "{{velocity: 0.4}} or {{response_time: 0.25}}".format(context)
            )
        (metric, value), = goal.items()
        spec = ScenarioClass(
            name=name,
            kind=str(_require(mapping, "kind", context)),
            goal_metric=str(metric),
            goal_value=_number(value, "{}: goal {}".format(context, metric)),
            importance=_number(
                _require(mapping, "importance", context),
                "{}: importance".format(context),
            ),
            clients=ClientCurve.from_value(
                _require(mapping, "clients", context), context
            ),
        )
        spec.service_class()  # validates kind/goal/importance eagerly
        return spec


@dataclass(frozen=True)
class ScenarioFault:
    """One scheduled behavioral fault.

    The injection instant is either ``at`` (seconds) or ``at_period``
    (fractional periods — scale-independent, so smoke-scaled runs inject
    at the same point of the schedule).  ``params`` hold the
    :class:`~repro.faults.FaultInjector` keyword arguments with the YAML
    spelling ``class:`` already translated to ``class_name``.
    """

    kind: str
    at: Optional[float] = None
    at_period: Optional[float] = None
    params: Mapping = field(default_factory=dict)

    def validate(self, context: str = "fault") -> None:
        from repro.faults import BEHAVIORAL_FAULTS

        if self.kind not in BEHAVIORAL_FAULTS:
            raise ScenarioError(
                "{}: unknown fault kind {!r}; expected one of {}".format(
                    context, self.kind, BEHAVIORAL_FAULTS
                )
            )
        if (self.at is None) == (self.at_period is None):
            raise ScenarioError(
                "{}: give exactly one of 'at' (seconds) or 'at_period' "
                "(periods)".format(context)
            )
        instant = self.at if self.at is not None else self.at_period
        if not instant >= 0:
            raise ScenarioError("{}: injection time must be >= 0".format(context))
        allowed = _FAULT_PARAM_KEYS[self.kind]
        unknown = sorted(
            set(self.params) - {"class_name" if k == "class" else k for k in allowed}
        )
        if unknown:
            raise ScenarioError(
                "{}: unknown parameters {} for fault {!r}; allowed: {}".format(
                    context, unknown, self.kind, sorted(allowed)
                )
            )
        # What the injector accepts: a count of at least one statement, a
        # fraction of a queue in (0, 1], a release latency >= 0.
        for key in _REQUIRED_FAULT_PARAMS.get(self.kind, ()):
            if ("class_name" if key == "class" else key) not in self.params:
                raise ScenarioError(
                    "{}: fault {!r} needs {!r}".format(context, self.kind, key)
                )
        params = self.params
        if "count" in params:
            _integer(params["count"], context + ": count", 1)
        if "fraction" in params and not (
            0.0 < _number(params["fraction"], context + ": fraction") <= 1.0
        ):
            raise ScenarioError("{}: fraction must be in (0, 1]".format(context))
        if "release_latency" in params and (
            _number(params["release_latency"], context + ": release_latency") < 0
        ):
            raise ScenarioError("{}: release_latency must be >= 0".format(context))

    def seconds(self, period_seconds: float, scale: float = 1.0) -> float:
        """Injection instant in seconds on a (possibly rescaled) schedule.

        ``period_seconds`` is the target schedule's period length;
        ``scale`` rescales an ``at``-in-seconds fault when the schedule
        was compressed (smoke runs), keeping its schedule position.
        """
        if self.at_period is not None:
            return self.at_period * period_seconds
        return self.at * scale

    def scheduled(self, period_seconds: float, scale: float = 1.0) -> ScheduledFault:
        """Compile to the runner's :class:`~repro.faults.ScheduledFault`."""
        from repro.faults import ScheduledFault

        return ScheduledFault(
            kind=self.kind,
            at=self.seconds(period_seconds, scale),
            params=dict(self.params),
        )

    def to_mapping(self) -> Dict[str, Any]:
        mapping: Dict[str, Any] = {"kind": self.kind}
        if self.at is not None:
            mapping["at"] = self.at
        else:
            mapping["at_period"] = self.at_period
        for key, value in self.params.items():
            mapping["class" if key == "class_name" else key] = value
        return mapping

    @staticmethod
    def from_mapping(mapping: Mapping, index: int) -> "ScenarioFault":
        from repro.faults import BEHAVIORAL_FAULTS

        context = "faults[{}]".format(index)
        if not isinstance(mapping, Mapping):
            raise ScenarioError("{}: expected a mapping".format(context))
        kind = str(_require(mapping, "kind", context))
        if kind not in BEHAVIORAL_FAULTS:
            raise ScenarioError(
                "{}: unknown fault kind {!r}; expected one of {}".format(
                    context, kind, BEHAVIORAL_FAULTS
                )
            )
        _check_keys(
            mapping,
            ("kind", "at", "at_period") + _FAULT_PARAM_KEYS[kind],
            context,
        )
        params = {}
        for key, value in mapping.items():
            if key in ("kind", "at", "at_period"):
                continue
            params["class_name" if key == "class" else key] = value
        fault = ScenarioFault(
            kind=kind,
            at=None if mapping.get("at") is None else _number(
                mapping["at"], context + ": at"
            ),
            at_period=None if mapping.get("at_period") is None else _number(
                mapping["at_period"], context + ": at_period"
            ),
            params=params,
        )
        fault.validate(context)
        return fault


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully parsed, structurally valid scenario document."""

    name: str
    period_seconds: float
    num_periods: int
    classes: Tuple[ScenarioClass, ...]
    version: int = SCENARIO_FORMAT_VERSION
    description: str = ""
    seed: int = 7
    controller: str = "qs"
    backend: str = "sim"
    backend_options: Mapping = field(default_factory=dict)
    invariants: str = "off"
    horizon: Optional[float] = None
    control: Mapping = field(default_factory=dict)
    faults: Tuple[ScenarioFault, ...] = ()
    shards: Optional[ShardPlan] = None

    @property
    def horizon_seconds(self) -> float:
        """Scheduled run length (before any explicit ``horizon`` cut)."""
        return self.period_seconds * self.num_periods

    def class_names(self) -> List[str]:
        return [c.name for c in self.classes]

    def resolved_counts(self) -> Dict[str, Tuple[int, ...]]:
        """Concrete per-class, per-period client counts."""
        return {c.name: c.clients.resolve(self.num_periods) for c in self.classes}

    def build_schedule(self, period_seconds: Optional[float] = None) -> PeriodSchedule:
        """The concrete :class:`PeriodSchedule` (optionally rescaled)."""
        return PeriodSchedule(
            period_seconds if period_seconds is not None else self.period_seconds,
            {name: list(counts) for name, counts in self.resolved_counts().items()},
        )

    def build_classes(self) -> List[ServiceClass]:
        """The live service classes, in document order."""
        return [c.service_class() for c in self.classes]

    def build_config(self) -> SimulationConfig:
        """Seeded configuration with ``control:`` overrides applied.

        The workload scale is owned by the ``schedule:`` section, so
        ``scale.period_seconds``/``scale.num_periods`` (and ``seed``) are
        rejected as override paths; everything else goes through the same
        dotted-path mechanism as ``repro sweep``.
        """
        from repro.experiments.sensitivity import set_config_field

        config = default_config(seed=self.seed)
        for path in sorted(self.control):
            if path in _RESERVED_CONTROL_PATHS:
                raise ScenarioError(
                    "control override {!r} is owned by the scenario's own "
                    "fields (seed / schedule)".format(path)
                )
            try:
                # "model" is sugar for the planner's performance-model
                # spec, so scenarios can say ``control: {model: learned}``.
                target = "planner.model" if path == "model" else path
                config = set_config_field(config, target, self.control[path])
            except ConfigurationError as exc:
                raise ScenarioError("control override {!r}: {}".format(path, exc))
        scale = WorkloadScaleConfig(
            period_seconds=self.period_seconds,
            num_periods=self.num_periods,
            think_time=config.scale.think_time,
        )
        return config.with_updates(scale=scale)

    def validate(self) -> "ScenarioSpec":
        """Deep validation: resolve every curve, class, config, and fault.

        Structural problems raise :class:`ScenarioError`; a spec that
        passes is guaranteed to compile via :func:`to_experiment_spec`.
        Returns ``self`` for chaining.
        """
        from repro.core.controllers import CONTROLLER_NAMES
        from repro.runtime import BACKEND_NAMES
        from repro.runtime.factory import check_backend_options
        from repro.validation import MODES

        if self.version != SCENARIO_FORMAT_VERSION:
            raise ScenarioError(
                "unsupported scenario format version {} (this build reads "
                "version {})".format(self.version, SCENARIO_FORMAT_VERSION)
            )
        if not self.name:
            raise ScenarioError("scenario needs a non-empty name")
        if not self.period_seconds > 0:
            raise ScenarioError("schedule.period_seconds must be positive")
        if self.num_periods < 1:
            raise ScenarioError("schedule.num_periods must be >= 1")
        if not self.classes:
            raise ScenarioError("scenario needs at least one class")
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            raise ScenarioError("duplicate class names: {}".format(sorted(names)))
        if self.controller not in CONTROLLER_NAMES:
            raise ScenarioError(
                "unknown controller {!r}; expected one of {}".format(
                    self.controller, CONTROLLER_NAMES
                )
            )
        if self.backend not in BACKEND_NAMES:
            raise ScenarioError(
                "unknown backend {!r}; expected one of {}".format(
                    self.backend, BACKEND_NAMES
                )
            )
        try:
            check_backend_options(self.backend, self.backend_options)
        except ConfigurationError as exc:
            raise ScenarioError(str(exc))
        if self.invariants not in MODES:
            raise ScenarioError(
                "unknown invariant mode {!r}; expected one of {}".format(
                    self.invariants, MODES
                )
            )
        if self.horizon is not None and not 0 < self.horizon < math.inf:
            raise ScenarioError("horizon must be positive and finite when given")
        schedule = self.build_schedule()
        self.build_classes()
        self.build_config()
        if self.shards is not None:
            self.shards.validate()
        for index, fault in enumerate(self.faults):
            fault.validate("faults[{}]".format(index))
            when = fault.seconds(self.period_seconds)
            if not schedule.within_horizon(when):
                raise ScenarioError(
                    "faults[{}]: injection at {:.6g}s is outside the "
                    "schedule horizon ({:.6g}s)".format(
                        index, when, schedule.horizon
                    )
                )
            class_name = fault.params.get("class_name")
            if class_name is not None and class_name not in names:
                raise ScenarioError(
                    "faults[{}]: unknown class {!r}".format(index, class_name)
                )
        return self


def scenario_to_mapping(spec: ScenarioSpec) -> Dict[str, Any]:
    """The canonical mapping (YAML document) form of a scenario.

    Inverse of :func:`scenario_from_mapping`: feeding the result back
    reproduces an equal :class:`ScenarioSpec`.  Defaulted optional
    sections are omitted, so hand-written minimal files stay minimal.
    """
    mapping: Dict[str, Any] = {
        "scenario": spec.version,
        "name": spec.name,
    }
    if spec.description:
        mapping["description"] = spec.description
    mapping["seed"] = spec.seed
    mapping["controller"] = spec.controller
    if spec.backend != "sim":
        mapping["backend"] = spec.backend
    if spec.backend_options:
        mapping["backend_options"] = dict(spec.backend_options)
    mapping["invariants"] = spec.invariants
    if spec.horizon is not None:
        mapping["horizon"] = spec.horizon
    mapping["schedule"] = {
        "period_seconds": spec.period_seconds,
        "num_periods": spec.num_periods,
    }
    if spec.control:
        mapping["control"] = dict(spec.control)
    mapping["classes"] = [c.to_mapping() for c in spec.classes]
    if spec.faults:
        mapping["faults"] = [f.to_mapping() for f in spec.faults]
    if spec.shards is not None:
        mapping["shards"] = spec.shards.to_mapping()
    return mapping


def scenario_from_mapping(mapping: Mapping) -> ScenarioSpec:
    """Parse and validate one scenario document (a loaded YAML mapping)."""
    if not isinstance(mapping, Mapping):
        raise ScenarioError(
            "a scenario document must be a mapping, got {!r}".format(
                type(mapping).__name__
            )
        )
    _check_keys(mapping, _TOP_LEVEL_KEYS, "scenario")
    _check_float_range(mapping, "")
    version = _require(mapping, "scenario", "scenario")
    if not isinstance(version, int) or isinstance(version, bool):
        raise ScenarioError(
            "'scenario' must be the integer format version, got {!r}".format(version)
        )
    schedule = _require(mapping, "schedule", "scenario")
    _check_keys(schedule, ("period_seconds", "num_periods"), "schedule")
    period_seconds = _number(
        _require(schedule, "period_seconds", "schedule"), "schedule.period_seconds"
    )

    classes_raw = _require(mapping, "classes", "scenario")
    if not isinstance(classes_raw, (list, tuple)) or not classes_raw:
        raise ScenarioError("'classes' must be a non-empty list")
    classes = tuple(ScenarioClass.from_mapping(c) for c in classes_raw)

    num_periods = schedule.get("num_periods")
    if num_periods is None:
        explicit = {
            len(c.clients.counts)
            for c in classes
            if c.clients.counts is not None
        }
        if len(explicit) != 1:
            raise ScenarioError(
                "schedule.num_periods is required unless exactly one period "
                "count is implied by explicit client lists (found {})".format(
                    sorted(explicit) or "none"
                )
            )
        num_periods = explicit.pop()
    num_periods = _integer(num_periods, "schedule.num_periods")

    faults_raw = mapping.get("faults", [])
    if not isinstance(faults_raw, (list, tuple)):
        raise ScenarioError("'faults' must be a list")
    faults = tuple(
        ScenarioFault.from_mapping(f, i) for i, f in enumerate(faults_raw)
    )

    control = mapping.get("control", {})
    if not isinstance(control, Mapping):
        raise ScenarioError("'control' must be a mapping of dotted paths")
    backend_options = mapping.get("backend_options", {})
    if not isinstance(backend_options, Mapping):
        raise ScenarioError("'backend_options' must be a mapping")

    shards_raw = mapping.get("shards")
    shards = None if shards_raw is None else ShardPlan.from_value(shards_raw)

    # YAML 1.1 reads an unquoted ``off`` as boolean False (and ``on`` as
    # True, which names no mode).
    invariants = mapping.get("invariants", "off")
    if invariants is False:
        invariants = "off"
    elif invariants is True:
        from repro.validation import MODES

        raise ScenarioError(
            "'invariants' must be one of {} (an unquoted on/yes/true is "
            "read by YAML as a boolean)".format(MODES)
        )

    horizon = mapping.get("horizon")
    spec = ScenarioSpec(
        name=str(_require(mapping, "name", "scenario")),
        period_seconds=period_seconds,
        num_periods=num_periods,
        classes=classes,
        version=version,
        description=str(mapping.get("description", "") or "").strip(),
        seed=_integer(mapping.get("seed", 7), "seed", 0),
        controller=str(mapping.get("controller", "qs")),
        backend=str(mapping.get("backend", "sim")),
        backend_options=dict(backend_options),
        invariants=str(invariants),
        horizon=None if horizon is None else _number(horizon, "horizon"),
        control=dict(control),
        faults=faults,
        shards=shards,
    )
    return spec.validate()


def to_experiment_spec(
    spec: ScenarioSpec,
    smoke: bool = False,
    invariants: Optional[str] = None,
    seed: Optional[int] = None,
) -> "ExperimentSpec":  # noqa: F821
    """Compile a scenario to a runnable :class:`ExperimentSpec`.

    ``smoke=True`` compresses time — periods shrink to
    :data:`SMOKE_PERIOD_SECONDS` (never stretched) and the control
    interval, monitor sampling, fault instants, and any explicit horizon
    shrink proportionally — while the schedule *shape* (period count and
    client counts) is untouched, so a smoke run exercises the same
    workload dynamics in seconds of virtual time.

    ``invariants``/``seed`` override the scenario's own values (CLI
    flags).
    """
    from repro.experiments.runner import ExperimentSpec
    from repro.experiments.sensitivity import set_config_field

    spec = spec.validate()
    if seed is not None and _integer(seed, "seed", 0) != spec.seed:
        from dataclasses import replace as _replace

        spec = _replace(spec, seed=seed)
    config = spec.build_config()

    period_seconds = spec.period_seconds
    scale = 1.0
    if smoke and period_seconds > SMOKE_PERIOD_SECONDS:
        scale = SMOKE_PERIOD_SECONDS / period_seconds
        period_seconds = SMOKE_PERIOD_SECONDS
    if scale != 1.0:
        config = config.with_updates(
            scale=WorkloadScaleConfig(
                period_seconds=period_seconds,
                num_periods=spec.num_periods,
                think_time=config.scale.think_time * scale,
            )
        )
    # Keep at least two control intervals per period so the planner reacts
    # within each period; shrink-only, and re-derive the monitor's sampling
    # cadence the way the CLI does when the interval tightens.
    interval = config.planner.control_interval
    effective = max(0.05, min(interval, period_seconds / 2.0))
    if effective != interval:
        config = set_config_field(config, "planner.control_interval", effective)
        monitor = config.monitor
        config = config.with_updates(
            monitor=type(monitor)(
                snapshot_interval=min(
                    monitor.snapshot_interval, max(0.05, effective / 2.0)
                ),
                velocity_window=monitor.velocity_window,
                response_time_window=min(
                    monitor.response_time_window, max(effective / 2.0, 10.0)
                ),
                max_measurement_age=monitor.max_measurement_age,
            )
        )
    return ExperimentSpec(
        controller=spec.controller,
        config=config,
        schedule=spec.build_schedule(period_seconds),
        classes=spec.build_classes(),
        invariants=invariants if invariants is not None else spec.invariants,
        backend=spec.backend,
        backend_options=dict(spec.backend_options),
        horizon=None if spec.horizon is None else spec.horizon * scale,
        faults=tuple(
            fault.scheduled(period_seconds, scale) for fault in spec.faults
        ),
    )


def to_sharded_experiment_spec(
    spec: ScenarioSpec,
    smoke: bool = False,
    invariants: Optional[str] = None,
    seed: Optional[int] = None,
    shards: Optional[int] = None,
    router: Optional[str] = None,
    rebalance: Optional[str] = None,
) -> "ShardedExperimentSpec":  # noqa: F821
    """Compile a scenario to a :class:`~repro.shard.spec.ShardedExperimentSpec`.

    The scenario's ``shards:`` block supplies the fleet layout;
    ``shards``/``router``/``rebalance`` override it (the CLI flags).  A
    scenario without the block compiles to a one-shard plan — which runs
    bit-identically to the unsharded path.
    """
    from repro.shard.spec import ShardedExperimentSpec

    base = to_experiment_spec(spec, smoke=smoke, invariants=invariants, seed=seed)
    plan = spec.shards or ShardPlan(count=1)
    return ShardedExperimentSpec(
        base=base,
        shards=plan.count if shards is None else int(shards),
        router=plan.router if router is None else str(router),
        rebalance=plan.rebalance if rebalance is None else str(rebalance),
        seed_stride=plan.seed_stride,
    ).validate()
