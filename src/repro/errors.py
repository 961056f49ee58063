"""Exception hierarchy for the ``repro`` package.

All exceptions raised by this package derive from :class:`ReproError` so that
callers can catch everything the library raises with a single handler while
still being able to discriminate the failure category.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """A configuration value is missing, inconsistent, or out of range."""


class SimulationError(ReproError):
    """The simulation kernel detected an internal inconsistency.

    These indicate a bug in the simulation (e.g. an event scheduled in the
    past) rather than a misuse of the public API.
    """


class SchedulingError(ReproError):
    """The Query Scheduler was asked to do something invalid.

    Examples: dispatching a query for an unknown service class, installing a
    scheduling plan whose limits exceed the system cost limit.
    """


class WorkloadError(ReproError):
    """A workload definition is invalid (unknown template, empty mix, ...)."""


class ExperimentError(ReproError):
    """An experiment run failed to execute.

    Raised by harnesses that cannot tolerate a partial batch (e.g. a
    configuration sweep, where a missing point would silently skew the
    curve); the message carries the failing run's error and traceback.
    """


class InvariantViolation(ReproError):
    """A runtime invariant over the live control loop does not hold.

    Raised by the validation harness in strict mode when a registered
    :class:`~repro.validation.Invariant` of severity ERROR or above fails —
    the controller's internal accounting has drifted from the engine's
    ground truth (exactly the class of bug a closed control loop masks).
    """


class MetricsError(ReproError):
    """A metrics or observability query is invalid.

    Examples: asking a collector for an unknown metric name, registering
    the same instrument name under two different kinds, or incrementing a
    callback-backed instrument.
    """


class ExportError(ReproError):
    """Writing an artifact (telemetry, spans, results) to disk failed.

    The common case is overwrite protection: exporters refuse to clobber
    an existing file unless the caller passes ``overwrite=True`` — a
    multi-shard run writing several artifacts into one directory must
    never silently truncate a sibling shard's records.  The one guard is
    :func:`repro.metrics.export.check_export_target`.
    """


class PatrollerError(ReproError):
    """The Query Patroller substrate was driven through an illegal transition.

    Examples: releasing a query that was never intercepted, or releasing the
    same query twice.
    """

class ScenarioError(ReproError):
    """A scenario document is invalid or cannot be resolved.

    Examples: a YAML file that fails schema validation, an unknown
    generator name in a ``clients:`` curve, a fault scheduled past the
    schedule horizon, or a scenario name that matches neither the library
    nor a file path.
    """
