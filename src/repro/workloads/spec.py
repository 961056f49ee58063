"""Workload templates and the query factory.

A :class:`QueryTemplate` describes one statement type by its *true* mean
resource demands; a :class:`WorkloadMix` is a weighted set of templates; and
:class:`QueryFactory` turns a mix into concrete :class:`~repro.dbms.query.Query`
instances: it draws per-instance demands (lognormal variation around the
template means), splits them into alternating CPU/IO phases, prices the true
cost exactly, and asks the optimizer for the (noisy) estimate that all
scheduling decisions will see.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dbms.optimizer import CostEstimator
from repro.dbms.query import Query, make_phases
from repro.errors import WorkloadError
from repro.sim.rng import RandomStreams


@dataclass(frozen=True)
class QueryTemplate:
    """One statement type of a workload.

    Parameters
    ----------
    name:
        Template name (e.g. ``"q9"`` or ``"new_order"``).
    kind:
        ``"olap"`` or ``"oltp"``.
    cpu_demand:
        Mean CPU seconds-at-full-speed per instance.
    io_demand:
        Mean IO seconds-at-full-speed per instance.
    rounds:
        Number of CPU→IO interleavings execution is split into.
    weight:
        Relative selection frequency within its mix.
    variability:
        Sigma of the lognormal factor applied to the demands of each
        instance (0 = all instances identical).
    parallelism:
        Intra-query degree of parallelism: each phase executes as this many
        concurrent sub-jobs (DB2's intra-partition parallelism for DSS
        queries).  OLTP statements use 1.
    """

    name: str
    kind: str
    cpu_demand: float
    io_demand: float
    rounds: int = 1
    weight: float = 1.0
    variability: float = 0.20
    parallelism: int = 1

    def validate(self) -> None:
        if self.kind not in ("olap", "oltp"):
            raise WorkloadError("template {!r}: unknown kind {!r}".format(self.name, self.kind))
        for field_name in ("cpu_demand", "io_demand", "weight", "variability"):
            if not math.isfinite(getattr(self, field_name)):
                raise WorkloadError(
                    "template {!r}: {} must be finite (got {!r})".format(
                        self.name, field_name, getattr(self, field_name)
                    )
                )
        if self.cpu_demand < 0 or self.io_demand < 0:
            raise WorkloadError("template {!r}: negative demand".format(self.name))
        if self.cpu_demand == 0 and self.io_demand == 0:
            raise WorkloadError("template {!r}: zero total demand".format(self.name))
        if self.rounds < 1:
            raise WorkloadError("template {!r}: rounds must be >= 1".format(self.name))
        if self.weight <= 0:
            raise WorkloadError("template {!r}: weight must be positive".format(self.name))
        if self.variability < 0:
            raise WorkloadError("template {!r}: negative variability".format(self.name))
        if self.parallelism < 1:
            raise WorkloadError(
                "template {!r}: parallelism must be >= 1".format(self.name)
            )


class WorkloadMix:
    """A weighted set of templates defining one workload class's statements."""

    def __init__(self, name: str, templates: Sequence[QueryTemplate]) -> None:
        if not templates:
            raise WorkloadError("workload mix {!r} has no templates".format(name))
        self.name = name
        self.templates: Tuple[QueryTemplate, ...] = tuple(templates)
        for template in self.templates:
            template.validate()
        self._by_name: Dict[str, QueryTemplate] = {t.name: t for t in self.templates}
        if len(self._by_name) != len(self.templates):
            raise WorkloadError("workload mix {!r} has duplicate template names".format(name))
        self._weights = [t.weight for t in self.templates]

    def __len__(self) -> int:
        return len(self.templates)

    def template(self, name: str) -> QueryTemplate:
        """Look up a template by name."""
        template = self._by_name.get(name)
        if template is None:
            raise WorkloadError(
                "mix {!r} has no template {!r}".format(self.name, name)
            )
        return template

    @property
    def weights(self) -> List[float]:
        """Selection weights aligned with :attr:`templates`."""
        return list(self._weights)

    def mean_true_cost(self, estimator: CostEstimator) -> float:
        """Weight-averaged exact cost of the mix (used for calibration)."""
        total_weight = sum(self._weights)
        return (
            sum(
                t.weight * estimator.true_cost(t.cpu_demand, t.io_demand)
                for t in self.templates
            )
            / total_weight
        )


class QueryFactory:
    """Creates concrete query instances from workload mixes."""

    def __init__(self, estimator: CostEstimator, rng: RandomStreams) -> None:
        self.estimator = estimator
        self.rng = rng
        self._next_id = 1
        #: Per mix, bound on first use: its template picker and each template
        #: with its demand-noise source, by position and by name.
        self._bound: Dict[WorkloadMix, tuple] = {}

    @property
    def queries_created(self) -> int:
        """Total instances created."""
        return self._next_id - 1

    def allocate_id(self) -> int:
        """Reserve the next query id (for externally built queries, e.g.
        trace replay)."""
        query_id = self._next_id
        self._next_id += 1
        return query_id

    def _bind(self, mix: WorkloadMix) -> tuple:
        rng = self.rng
        by_name = {
            t.name: (t, rng.lognormal_draws("demand:{}".format(t.name), t.variability))
            for t in mix.templates
        }
        pick = rng.choice_draws("mix:{}".format(mix.name), mix.weights)
        bound = self._bound[mix] = (pick, tuple(by_name.values()), by_name)
        return bound

    def create(
        self,
        mix: WorkloadMix,
        class_name: str,
        client_id: str,
        template_name: Optional[str] = None,
    ) -> Query:
        """Instantiate one query.

        Picks a template by weight (or by ``template_name``), perturbs
        demands by the template's variability, and prices the instance.
        """
        pick, by_index, by_name = self._bound.get(mix) or self._bind(mix)
        if template_name is None:
            template, noise = by_index[pick()]
        else:
            template, noise = by_name[mix.template(template_name).name]
        factor = noise()
        cpu_demand = template.cpu_demand * factor
        io_demand = template.io_demand * factor
        true_cost, estimated_cost = self.estimator.price(cpu_demand, io_demand)
        query = Query(
            self._next_id,
            class_name,
            client_id,
            template.name,
            template.kind,
            make_phases(cpu_demand, io_demand, template.rounds),
            true_cost,
            estimated_cost,
        )
        query.parallelism = template.parallelism
        self._next_id += 1
        return query
