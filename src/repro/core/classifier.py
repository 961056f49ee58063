"""The Classifier.

"The Classifier assigns the query to an appropriate service class based on
its performance goal and places the query in the associated queue
manipulated by the dispatcher" (Section 2).

Classification trusts the submitter's class tag (clients connect "as" a
class, exactly like DB2 QP submitter profiles) and validates it against
the registered classes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.service_class import ServiceClass
from repro.dbms.query import Query
from repro.errors import SchedulingError


class Classifier:
    """Maps incoming queries to registered service classes."""

    def __init__(self, classes: Sequence[ServiceClass]) -> None:
        if not classes:
            raise SchedulingError("classifier needs at least one service class")
        self._classes: Dict[str, ServiceClass] = {}
        for service_class in classes:
            if service_class.name in self._classes:
                raise SchedulingError(
                    "duplicate service class {!r}".format(service_class.name)
                )
            self._classes[service_class.name] = service_class

    @property
    def classes(self) -> List[ServiceClass]:
        """Registered classes (insertion order)."""
        return list(self._classes.values())

    @property
    def class_names(self) -> List[str]:
        """Names of the registered classes."""
        return list(self._classes)

    def get(self, class_name: str) -> ServiceClass:
        """Look up a registered class."""
        service_class = self._classes.get(class_name)
        if service_class is None:
            raise SchedulingError("unknown service class {!r}".format(class_name))
        return service_class

    def classify(self, query: Query) -> ServiceClass:
        """The service class the query's submitter tagged it with.

        Raises SchedulingError on a missing or unregistered tag — a
        misrouted query must never be silently dropped from workload
        control.
        """
        service_class = self._classes.get(query.class_name)
        if service_class is None:
            raise SchedulingError(
                "query {} is tagged with unknown service class {!r}".format(
                    query.query_id, query.class_name
                )
            )
        return service_class
