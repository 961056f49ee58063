"""Tests for the Classifier."""

import pytest

from repro.core.classifier import Classifier
from repro.core.service_class import paper_classes
from repro.dbms.query import CPU, Query
from repro.errors import SchedulingError


def make_query(class_name="class1", kind="olap", cost=1000.0):
    return Query(
        query_id=1,
        class_name=class_name,
        client_id="c0",
        template="t",
        kind=kind,
        phases=((CPU, 1.0),),
        true_cost=cost,
        estimated_cost=cost,
    )


def test_default_rule_trusts_submitter_tag():
    classifier = Classifier(paper_classes())
    query = make_query(class_name="class2")
    assigned = classifier.classify(query)
    assert assigned.name == "class2"
    assert query.class_name == "class2"


def test_unknown_tag_rejected():
    classifier = Classifier(paper_classes())
    with pytest.raises(SchedulingError):
        classifier.classify(make_query(class_name="marketing"))


def test_untagged_query_with_no_matching_rule_rejected():
    classifier = Classifier(paper_classes())
    with pytest.raises(SchedulingError):
        classifier.classify(make_query(class_name=""))


def test_duplicate_classes_rejected():
    classes = list(paper_classes())
    with pytest.raises(SchedulingError):
        Classifier(classes + [classes[0]])


def test_empty_classes_rejected():
    with pytest.raises(SchedulingError):
        Classifier([])


def test_get_lookup():
    classifier = Classifier(paper_classes())
    assert classifier.get("class3").kind == "oltp"
    with pytest.raises(SchedulingError):
        classifier.get("nope")
    assert classifier.class_names == ["class1", "class2", "class3"]
