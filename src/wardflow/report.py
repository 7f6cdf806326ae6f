"""Assemble the JSON analysis report from the individual analysis sections."""
from __future__ import annotations

import collections.abc
import dataclasses
import functools
import math
import types
import typing
from typing import Any, Callable, Literal, Mapping, NamedTuple

from . import SECTIONS, __version__
from . import classify as classify_mod
from . import metrics as metrics_mod
from . import powerlaw as powerlaw_mod
from . import resilience as resilience_mod
from . import smallworld as smallworld_mod
from .eventlog import IngestStats
from .network import TransferNetwork, as_symmetric_directed, undirected_projection
from .pool import derive_seed


class DerivedSeeds(NamedTuple):
    """The sub-seeds of the randomized sections; field i is drawn for domain i + 1 of the master seed."""

    power_law: int
    small_world: int
    attack_random: int


@dataclasses.dataclass(frozen=True)
class AnalysisOptions:
    """The options of an analysis, in the order the report's `config` echoes them.

    Every default and range check of `wardflow analyze` is here, so a bad
    value fails before any input is read or any section runs. Strategies and
    skipped sections are kept sorted and distinct.
    """

    seed: int = 0
    boot: int = 200  # bootstrap replicates of the degree-tail fit; 0 leaves the bootstrap out
    quantile: float = 0.20
    role_threshold_sd: float = 2.0
    sw_samples: int = 20
    sw_swaps: int | None = None  # None: the small-world section's default per edge
    sw_lattice_swaps: int | None = None
    attack_strategies: tuple[str, ...] = ("degree", "random")
    attack_step: float = 0.05
    skip: tuple[str, ...] = ()
    weighted_betweenness: bool = False
    derived_seeds: DerivedSeeds = dataclasses.field(init=False)

    def __post_init__(self):
        # the report echoes these, and JSON has no nan or infinity
        for name in ("quantile", "role_threshold_sd", "attack_step"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)}")
        for name, low in (("seed", 0), ("boot", 0), ("role_threshold_sd", 0), ("sw_samples", 1), ("sw_swaps", 0),
                          ("sw_lattice_swaps", 0)):
            value = getattr(self, name)
            if value is not None and value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        for name in ("quantile", "attack_step"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {getattr(self, name)}")
        for name, allowed in (("attack_strategies", ("betweenness", "degree", "random")), ("skip", SECTIONS)):
            values = tuple(sorted(set(getattr(self, name))))
            unknown = [value for value in values if value not in allowed]
            if unknown:
                raise ValueError(f"{name} must be among {', '.join(allowed)}, got {unknown}")
            object.__setattr__(self, name, values)

    def __getattr__(self, name: str) -> DerivedSeeds:
        # derived_seeds is drawn on first read, so that checking the options loads no numpy before the input is read
        if name != "derived_seeds":
            raise AttributeError(name)
        object.__setattr__(self, name, DerivedSeeds(*(derive_seed(self.seed, domain) for domain in range(1, 4))))
        return self.derived_seeds


class Tool(NamedTuple):
    name: Literal["wardflow"]
    version: str


class Input(NamedTuple):
    digest: str | None  # sha256 hex of the input file, or of an event log and its category map


class ReportHead(NamedTuple):
    """The entries every report opens with; the sections follow, in `SECTIONS` order."""

    tool: Tool
    input: Input
    config: AnalysisOptions


class NetworkSummary(NamedTuple):
    nodes: int
    edges: int
    total_weight: int
    directed: bool
    categorised_nodes: int


class Classification(NamedTuple):
    hubs_bottlenecks: classify_mod.HubBottleneckTable
    roles: classify_mod.RoleTable


# the parts of the `fits` section, in report order; each is captured on its own, as a section is
FIT_PARTS = ("degree_tail", "strength_degree", "betweenness_degree", "knn_degree")


@functools.cache
def _field_names(cls: type) -> tuple[str, ...] | None:
    """Field names of a dataclass or named tuple type, else None; cached, as node rows come in thousands."""
    if dataclasses.is_dataclass(cls):
        return tuple(f.name for f in dataclasses.fields(cls))
    return getattr(cls, "_fields", None)


def _plain(value: Any) -> Any:
    """The report form of a result, as JSON-ready dicts and lists.

    A dataclass or named tuple becomes a dict of its fields in declaration
    order. A null field that its type's `null_reasons` table names is
    followed by `<field>_reason`, with the text from that table. Other
    sequences become lists and mapping keys become strings.
    """
    names = _field_names(type(value))
    if names is None:
        if value is None or isinstance(value, (str, int, float)):
            return value
        if isinstance(value, Mapping):
            return {str(key): _plain(item) for key, item in value.items()}
        return [_plain(item) for item in value]
    fields = {name: getattr(value, name) for name in names}
    if set(map(type, fields.values())) <= {str, int, float}:
        return fields  # no null, no nesting: a node row, most often
    reasons = getattr(value, "null_reasons", {})
    out: dict[str, Any] = {}
    for name, item in fields.items():
        out[name] = _plain(item)
        if item is None and name in reasons:
            out[f"{name}_reason"] = reasons[name]
    return out


def _capture(out: dict[str, Any], key: str, producer: Callable[[], Any]) -> bool:
    """out[key] = the report form of producer(), or None and a `<key>_reason` if it raises; True on failure."""
    try:
        out[key] = _plain(producer())
    except Exception as exc:  # noqa: BLE001 - failures become report entries
        out[key] = None
        out[f"{key}_reason"] = str(exc)
        return True
    return False


class _Sections:
    """The producers of a report's entries: one method per name in `SECTIONS` and in `FIT_PARTS`.

    Each method's return annotation is the type that its entry is written
    from, and `report_schema` reads it.
    """

    def __init__(self, net: TransferNetwork, options: AnalysisOptions, ingest: IngestStats | None):
        self.net = net
        self.directed = as_symmetric_directed(net)
        self.options = options
        self.seeds = options.derived_seeds
        self.ingest_stats = ingest

    @functools.cached_property
    def nodes(self) -> dict[str, metrics_mod.NodeMetrics]:
        return metrics_mod.compute_node_metrics(self.directed, betweenness_weighted=self.options.weighted_betweenness)

    def ingest(self) -> IngestStats:
        if self.ingest_stats is None:
            raise ValueError("no ingest performed for this input")
        return dataclasses.replace(self.ingest_stats, rejections=dict(sorted(self.ingest_stats.rejections.items())))

    def network_summary(self) -> NetworkSummary:
        directed = self.directed
        return NetworkSummary(directed.node_count, directed.edge_count, directed.total_weight, self.net.directed,
                              len(self.net.categories or {}))

    def node_metrics(self) -> tuple[metrics_mod.NodeMetrics, ...]:
        return tuple(m for _, m in sorted(self.nodes.items()))

    def network_metrics(self) -> metrics_mod.NetworkMetrics:
        return metrics_mod.compute_network_metrics(self.directed)

    def fits(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for name in FIT_PARTS:
            _capture(out, name, getattr(self, name))
        return out

    def degree_tail(self) -> powerlaw_mod.PowerLawFit:
        samples = [m.degree for m in self.nodes.values() if m.degree >= 1]
        return powerlaw_mod.analyze_tail(samples, n_boot=self.options.boot, seed=self.seeds.power_law)

    def strength_degree(self) -> powerlaw_mod.RegressionFit:
        return powerlaw_mod.fit_strength_degree(self.directed)

    def betweenness_degree(self) -> powerlaw_mod.RegressionFit:
        return powerlaw_mod.fit_betweenness_degree(self.nodes)

    def knn_degree(self) -> powerlaw_mod.RegressionFit:
        # the k_nn curve is read from the node metrics' k_nn values, so `knn` runs once per report
        knn = {label: m.knn_weighted for label, m in self.nodes.items()}
        return powerlaw_mod.fit_knn_curve(metrics_mod.knn_curve(self.directed, knn))

    def small_world(self) -> smallworld_mod.SmallWorldReport:
        options = self.options
        return smallworld_mod.small_world_report(
            undirected_projection(self.directed), n_samples=options.sw_samples, seed=self.seeds.small_world,
            n_swaps=options.sw_swaps, lattice_swaps=options.sw_lattice_swaps)

    def classification(self) -> Classification:
        return Classification(classify_mod.classify_hubs_bottlenecks(self.nodes, self.options.quantile),
                              classify_mod.label_distributors_receivers(self.nodes, self.options.role_threshold_sd))

    def resilience(self) -> dict[str, resilience_mod.AttackResult]:
        return {
            strategy: resilience_mod.attack(self.directed, strategy, step_fraction=self.options.attack_step,
                                            seed=self.seeds.attack_random)
            for strategy in self.options.attack_strategies
        }


def build_report(net: TransferNetwork, options: AnalysisOptions, *,
                 ingest: IngestStats | None = None, digest: str | None = None) -> dict[str, Any]:
    """Run every non-skipped analysis section over the network, in `SECTIONS` order.

    Section computations that fail leave a null entry with a sibling reason
    instead of aborting the report.
    """
    sections = _Sections(net, options, ingest)
    report = _plain(ReportHead(Tool("wardflow", __version__), Input(digest), options))
    run = [name for name in SECTIONS if name not in options.skip]
    failures = sum(_capture(report, name, getattr(sections, name)) for name in run)
    if run and failures == len(run):
        report["all_sections_failed"] = True
    return report


_JSON_TYPES = {int: "integer", float: "number", str: "string", bool: "boolean"}


def _schema(hint: Any) -> dict[str, Any]:
    """The draft-07 schema of what `_plain` writes for a value of type `hint`.

    A dataclass or named tuple is a closed object that requires every field,
    in declaration order; its `null_reasons` fields are followed by their
    `<field>_reason`.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint in _JSON_TYPES:
        return {"type": _JSON_TYPES[hint]}
    if origin is Literal:
        return {"const": args[0]} if len(args) == 1 else {"enum": list(args)}
    if origin is types.UnionType:  # X | None
        (inner,) = [arg for arg in args if arg is not type(None)]
        return _nullable(_schema(inner))
    if origin is tuple:  # tuple[X, ...]
        return {"type": "array", "items": _schema(args[0])}
    if origin in (dict, collections.abc.Mapping):
        return {"type": "object", "additionalProperties": _schema(args[1])}
    names = _field_names(hint)
    if names is None:
        raise TypeError(f"no report form for {hint!r}")
    hints = typing.get_type_hints(hint)
    reasons = getattr(hint, "null_reasons", {})
    properties: dict[str, Any] = {}
    for name in names:
        properties[name] = _schema(hints[name])
        if name in reasons:
            properties[f"{name}_reason"] = {"type": "string"}
    return _closed(properties, list(names))


def _nullable(schema: dict[str, Any]) -> dict[str, Any]:
    return {**schema, "type": [schema["type"], "null"]}


def _closed(properties: dict[str, Any], required: list[str]) -> dict[str, Any]:
    return {"type": "object", "required": required, "properties": properties, "additionalProperties": False}


def _captured(names: tuple[str, ...]) -> dict[str, Any]:
    """The entries `_capture` writes for these producers: each result, or null and a `<name>_reason`."""
    properties: dict[str, Any] = {}
    for name in names:
        if name == "fits":
            entry = _closed(_captured(FIT_PARTS), list(FIT_PARTS))
        else:
            entry = _schema(typing.get_type_hints(getattr(_Sections, name))["return"])
        properties[name] = _nullable(entry)
        properties[f"{name}_reason"] = {"type": "string"}
    return properties


def report_schema() -> dict[str, Any]:
    """The draft-07 JSON schema of a report, derived from the result types that `_plain` writes.

    `report_schema.json` is this function's output, written with
    `json.dumps(report_schema(), indent=2)` and a final newline.
    Sections are optional, since a skipped section is left out.
    """
    schema = _schema(ReportHead)
    schema["properties"].update(_captured(SECTIONS))
    schema["properties"]["all_sections_failed"] = {"const": True}
    return {"$schema": "http://json-schema.org/draft-07/schema#", "title": "wardflow analysis report",
            "description": f"Schema version {__version__}; versioned together with the tool.", **schema}
