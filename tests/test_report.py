"""The report schema against the result types it is generated from, and their tables of null reasons."""
import copy
import inspect
import json
import types
import typing
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from wardflow import classify, eventlog, metrics, powerlaw, report, resilience, smallworld

RESULT_TYPES = [
    cls
    for module in (classify, eventlog, metrics, powerlaw, report, resilience, smallworld)
    for _, cls in inspect.getmembers(module, inspect.isclass)
    if cls.__module__ == module.__name__ and "null_reasons" in vars(cls)
]


def test_the_result_types_with_null_reasons():
    assert sorted(cls.__name__ for cls in RESULT_TYPES) == ["NetworkMetrics", "NodeMetrics", "SmallWorldReport"]


@pytest.mark.parametrize("cls", RESULT_TYPES, ids=lambda cls: cls.__name__)
def test_every_reason_names_a_declared_field_that_can_be_null(cls):
    # the schema generator lists `<field>_reason` after each such field, and makes that field nullable
    hints = typing.get_type_hints(cls)
    fields = report._field_names(cls)
    # a class variable, so not itself a field of the report
    assert "null_reasons" not in fields
    for name, reason in cls.null_reasons.items():
        assert name in fields, f"{cls.__name__}.null_reasons names no field {name!r}"
        hint = hints[name]
        assert typing.get_origin(hint) is types.UnionType and type(None) in typing.get_args(hint), \
            f"{cls.__name__}.{name} is not annotated `... | None`"
        assert reason


SHIPPED = resources.files("wardflow").joinpath("report_schema.json")
GOLDEN = sorted(Path(__file__).parent.glob("golden_report*.json"))


def test_the_shipped_schema_is_the_generated_one():
    # compared as text: dict equality would let a reordered field through
    assert SHIPPED.read_text() == json.dumps(report.report_schema(), indent=2) + "\n", (
        "regenerate: python -c \"import json, wardflow.report as r; print(json.dumps(r.report_schema(), indent=2))\""
        " > src/wardflow/report_schema.json")


def _objects_in_schema_order(value, schema, path):
    """The number of objects under `value`; fails where an object's keys are not in its schema's property order."""
    if isinstance(value, list):
        return sum(_objects_in_schema_order(item, schema["items"], f"{path}[{i}]") for i, item in enumerate(value))
    if not isinstance(value, dict):
        return 0
    if "properties" in schema:
        order = list(schema["properties"])
        assert list(value) == [key for key in order if key in value], f"{path}: {list(value)} not in order {order}"
        children = {key: schema["properties"][key] for key in value}
    else:
        children = {key: schema["additionalProperties"] for key in value}
    return 1 + sum(_objects_in_schema_order(item, children[key], f"{path}.{key}") for key, item in value.items())


@pytest.mark.parametrize("golden", GOLDEN, ids=lambda path: path.stem)
def test_golden_report_is_valid_with_every_object_in_schema_order(golden):
    schema = json.loads(SHIPPED.read_text())
    value = json.loads(golden.read_text())
    jsonschema.validate(value, schema)
    assert _objects_in_schema_order(value, schema, "report") > 10


def _add(key):
    return lambda obj: obj.__setitem__(key, 1)


MUTANTS = {
    "node-row-extra-key": (("node_metrics", 0), _add("extra")),
    "degree-tail-extra-key": (("fits", "degree_tail"), _add("extra")),
    "small-world-extra-key": (("small_world",), _add("extra")),
    "transitivity-dropped": (("network_metrics",), lambda obj: obj.pop("transitivity")),
    "quadrant-outside-the-enum": (("classification", "hubs_bottlenecks", "quadrants"),
                                  lambda obj: obj.__setitem__(next(iter(obj)), "hub")),
}


@pytest.mark.parametrize("path, mutate", MUTANTS.values(), ids=MUTANTS.keys())
def test_schema_rejects_a_mutated_report(path, mutate):
    schema = json.loads(SHIPPED.read_text())
    value = json.loads(Path(__file__).with_name("golden_report.json").read_text())
    jsonschema.validate(value, schema)
    mutant = copy.deepcopy(value)
    target = mutant
    for key in path:
        target = target[key]
    mutate(target)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(mutant, schema)
