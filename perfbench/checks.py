"""Output checks for `wardflow analyze` reports.

A report passes when it validates against the package's report schema,
every requested section is present and non-null, its totals equal the
generator's, its randomized parts have the expected shapes, and it equals
the run's first report field by field with floats compared at a relative
tolerance. Byte equality across processes is not required: the summation
order of some float metrics follows the string hash seed, so reports of
identical inputs can differ in the last digits (see NOTES.md).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from xml.etree import ElementTree

import jsonschema

SECTIONS = ("ingest", "network_summary", "node_metrics", "network_metrics", "fits",
            "small_world", "classification", "resilience")
FLOAT_REL_TOL = 1e-9
FLOAT_ABS_TOL = 1e-12


@dataclass(frozen=True)
class Expectation:
    """What a correct report of one workload's inputs contains."""

    digest: str
    nodes: int
    edges: int
    total_weight: int
    rows: int | None  # rows of the raw log when analyze ingests it, else None
    skip: tuple[str, ...]
    boot: int
    sw_samples: int
    attack_steps: int
    strategies: tuple[str, ...]


def graphml_totals(path: Path) -> tuple[int, int, float]:
    """Nodes, edges and summed edge `weight` of a GraphML file."""
    ns = "{http://graphml.graphdrawing.org/xmlns}"
    root = ElementTree.parse(path).getroot()
    weight_keys = {key.get("id") for key in root.iter(f"{ns}key")
                   if key.get("for") == "edge" and key.get("attr.name") == "weight"}
    graph = root.find(f"{ns}graph")
    edges = graph.findall(f"{ns}edge")
    weight = sum(float(data.text) for edge in edges for data in edge.findall(f"{ns}data")
                 if data.get("key") in weight_keys)
    return len(graph.findall(f"{ns}node")), len(edges), weight


def load_validator(schema_path: Path):
    schema = json.loads(schema_path.read_text(encoding="utf-8"))
    return jsonschema.validators.validator_for(schema)(schema)


def compare(a, b, path: str = "$") -> list[str]:
    """Field-by-field differences; floats equal within the relative tolerance."""
    if isinstance(a, float) and isinstance(b, float):
        if math.isclose(a, b, rel_tol=FLOAT_REL_TOL, abs_tol=FLOAT_ABS_TOL):
            return []
        return [f"{path}: {a!r} != {b!r}"]
    if type(a) is not type(b):
        return [f"{path}: type {type(a).__name__} != {type(b).__name__}"]
    if isinstance(a, dict):
        if a.keys() != b.keys():
            return [f"{path}: keys differ {sorted(a.keys() ^ b.keys())}"]
        return [d for key in a for d in compare(a[key], b[key], f"{path}.{key}")]
    if isinstance(a, list):
        if len(a) != len(b):
            return [f"{path}: length {len(a)} != {len(b)}"]
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in compare(x, y, f"{path}[{i}]")]
    return [] if a == b else [f"{path}: {a!r} != {b!r}"]


def check_report(report: dict, expect: Expectation, validator, reference: dict | None) -> list[str]:
    """Every way `report` falls short of `expect`; an empty list means it passes."""
    problems = [f"schema: {error.message}" for error in validator.iter_errors(report)]
    for section in SECTIONS:
        if section in expect.skip:
            continue
        if section == "ingest" and expect.rows is None:
            if report.get("ingest") is not None:
                problems.append("ingest: expected null for network-file input")
            continue
        if report.get(section) is None:
            problems.append(f"{section}: null ({report.get(section + '_reason')})")
    if problems:
        return problems

    if report["input"]["digest"] != expect.digest:
        problems.append("input.digest differs from the inputs' sha256")
    summary = report["network_summary"]
    for key, want in (("nodes", expect.nodes), ("edges", expect.edges), ("total_weight", expect.total_weight)):
        if summary[key] != want:
            problems.append(f"network_summary.{key}: {summary[key]} != generated {want}")
    if expect.rows is not None:
        ingest = report["ingest"]
        if ingest["rows_read"] != expect.rows or ingest["rows_rejected"] != 0:
            problems.append(f"ingest: read {ingest['rows_read']} rejected {ingest['rows_rejected']}, "
                            f"wrote {expect.rows}")
    tail = report["fits"].get("degree_tail")
    if tail is None or tail["n_bootstrap"] != expect.boot:
        problems.append(f"fits.degree_tail: n_bootstrap != {expect.boot}")
    if "small_world" not in expect.skip:
        world = report["small_world"]
        shapes = (world["n_samples"], len(world["accepted_swaps_random"]), len(world["accepted_swaps_lattice"]))
        if shapes != (expect.sw_samples,) * 3:
            problems.append(f"small_world: ensemble shapes {shapes} != {expect.sw_samples}")
    if "resilience" not in expect.skip:
        for strategy in expect.strategies:
            steps = len(report["resilience"].get(strategy, {}).get("steps", []))
            if steps != expect.attack_steps:
                problems.append(f"resilience.{strategy}: {steps} steps != {expect.attack_steps}")
    if reference is not None:
        problems.extend(f"differs from the run's first report at {d}" for d in compare(report, reference)[:5])
    return problems
