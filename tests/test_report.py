"""Each result type's table of null reasons against the fields the report writes."""
import dataclasses
import inspect

import pytest

from wardflow import classify, eventlog, metrics, powerlaw, resilience, smallworld

RESULT_TYPES = [
    cls
    for module in (classify, eventlog, metrics, powerlaw, resilience, smallworld)
    for _, cls in inspect.getmembers(module, inspect.isclass)
    if cls.__module__ == module.__name__ and "null_reasons" in vars(cls)
]


def test_the_result_types_with_null_reasons():
    assert sorted(cls.__name__ for cls in RESULT_TYPES) == ["NetworkMetrics", "NodeMetrics", "SmallWorldReport"]


@pytest.mark.parametrize("cls", RESULT_TYPES, ids=lambda cls: cls.__name__)
def test_every_reason_names_a_declared_field_that_can_be_null(cls):
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    # a class variable, so not itself a field of the report
    assert "null_reasons" not in types
    for name, reason in cls.null_reasons.items():
        assert name in types, f"{cls.__name__}.null_reasons names no field {name!r}"
        assert "None" in str(types[name]), f"{cls.__name__}.{name} cannot be null"
        assert reason
