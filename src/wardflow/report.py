"""Assemble the JSON analysis report from the individual analysis sections."""
from __future__ import annotations

import dataclasses
import functools
import math
from typing import Any, Callable, Mapping, NamedTuple

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


def build_report(net: TransferNetwork, options: AnalysisOptions, *,
                 ingest: IngestStats | None = None, digest: str | None = None) -> dict[str, Any]:
    """Run every non-skipped analysis section over the network, in `SECTIONS` order.

    Section computations that fail leave a null entry with a sibling reason
    instead of aborting the report.
    """
    directed = as_symmetric_directed(net)
    seeds = options.derived_seeds

    @functools.cache
    def node_metrics() -> dict[str, metrics_mod.NodeMetrics]:
        return metrics_mod.compute_node_metrics(directed, betweenness_weighted=options.weighted_betweenness)

    def ingest_section():
        if ingest is None:
            raise ValueError("no ingest performed for this input")
        return dataclasses.replace(ingest, rejections=dict(sorted(ingest.rejections.items())))

    def fits_section():
        out: dict[str, Any] = {}
        degree_samples = [m.degree for m in node_metrics().values() if m.degree >= 1]
        # the k_nn curve is read from the node metrics' k_nn values, so `knn` runs once per report
        knn = {label: m.knn_weighted for label, m in node_metrics().items()}
        parts = {
            "degree_tail": lambda: powerlaw_mod.analyze_tail(degree_samples, n_boot=options.boot, seed=seeds.power_law),
            "strength_degree": lambda: powerlaw_mod.fit_strength_degree(directed),
            "betweenness_degree": lambda: powerlaw_mod.fit_betweenness_degree(node_metrics()),
            "knn_degree": lambda: powerlaw_mod.fit_knn_curve(metrics_mod.knn_curve(directed, knn)),
        }
        for key, producer in parts.items():
            _capture(out, key, producer)
        return out

    sections: dict[str, Callable[[], Any]] = {
        "ingest": ingest_section,
        "network_summary": lambda: {
            "nodes": directed.node_count,
            "edges": directed.edge_count,
            "total_weight": directed.total_weight,
            "directed": net.directed,
            "categorised_nodes": len(net.categories or {}),
        },
        "node_metrics": lambda: [m for _, m in sorted(node_metrics().items())],
        "network_metrics": lambda: metrics_mod.compute_network_metrics(directed),
        "fits": fits_section,
        "small_world": lambda: smallworld_mod.small_world_report(
            undirected_projection(directed), n_samples=options.sw_samples, seed=seeds.small_world,
            n_swaps=options.sw_swaps, lattice_swaps=options.sw_lattice_swaps),
        "classification": lambda: {
            "hubs_bottlenecks": classify_mod.classify_hubs_bottlenecks(node_metrics(), options.quantile),
            "roles": classify_mod.label_distributors_receivers(node_metrics(), options.role_threshold_sd),
        },
        "resilience": lambda: {
            strategy: resilience_mod.attack(directed, strategy, step_fraction=options.attack_step,
                                            seed=seeds.attack_random)
            for strategy in options.attack_strategies
        },
    }
    report: dict[str, Any] = {
        "tool": {"name": "wardflow", "version": __version__},
        "input": {"digest": digest},
        "config": _plain(options),
    }
    run = [name for name in SECTIONS if name not in options.skip]
    failures = sum(_capture(report, name, sections[name]) for name in run)
    if run and failures == len(run):
        report["all_sections_failed"] = True
    return report
