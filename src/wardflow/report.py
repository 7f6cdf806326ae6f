"""Assemble the JSON analysis report from the individual analysis sections."""
from __future__ import annotations

import dataclasses
import functools
import math
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from . import SECTIONS, __version__
from . import classify as classify_mod
from . import metrics as metrics_mod
from . import powerlaw as powerlaw_mod
from . import resilience as resilience_mod
from . import smallworld as smallworld_mod
from .eventlog import IngestStats
from .network import TransferNetwork, as_symmetric_directed, undirected_projection

_POWERLAW_DOMAIN = 1
_SMALLWORLD_DOMAIN = 2
_ATTACK_DOMAIN = 3


def derive_seed(master: int, domain: int) -> int:
    """Stable per-component sub-seed from the single master seed."""
    return int(np.random.SeedSequence((master, domain)).generate_state(1)[0])


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


def build_report(net: TransferNetwork, *, seed: int = 0, boot: int = 200,
                 quantile: float = 0.20, role_threshold_sd: float = 2.0,
                 sw_samples: int = 20, sw_swaps: int | None = None,
                 sw_lattice_swaps: int | None = None,
                 attack_strategies: Iterable[str] = ("degree", "random"),
                 attack_step: float = 0.05, skip: Iterable[str] = (),
                 ingest: IngestStats | None = None, digest: str | None = None,
                 weighted_betweenness: bool = False) -> dict[str, Any]:
    """Run every non-skipped analysis section over the network.

    Section computations that fail leave a null entry with a sibling reason
    instead of aborting the report.
    """
    skip_set = set(skip)
    unknown = skip_set - set(SECTIONS)
    if unknown:
        raise ValueError(f"unknown sections to skip: {sorted(unknown)}")
    if boot < 0:
        raise ValueError(f"boot must be >= 0 (0 skips the bootstrap), got {boot}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    # the report echoes these in its config, and JSON has no nan or infinity
    for name, value in (("quantile", quantile), ("role_threshold_sd", role_threshold_sd), ("attack_step", attack_step)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value}")

    directed = as_symmetric_directed(net)
    report: dict[str, Any] = {
        "tool": {"name": "wardflow", "version": __version__},
        "input": {"digest": digest},
        "config": {
            "seed": seed,
            "boot": boot,
            "quantile": quantile,
            "role_threshold_sd": role_threshold_sd,
            "sw_samples": sw_samples,
            "sw_swaps": sw_swaps,
            "sw_lattice_swaps": sw_lattice_swaps,
            "attack_strategies": sorted(set(attack_strategies)),
            "attack_step": attack_step,
            "skip": sorted(skip_set),
            "weighted_betweenness": weighted_betweenness,
            "derived_seeds": {
                "power_law": derive_seed(seed, _POWERLAW_DOMAIN),
                "small_world": derive_seed(seed, _SMALLWORLD_DOMAIN),
                "attack_random": derive_seed(seed, _ATTACK_DOMAIN),
            },
        },
    }

    failures = 0
    total = 0

    def section(name: str, producer: Callable[[], Any]) -> None:
        nonlocal failures, total
        if name in skip_set:
            return
        total += 1
        failures += _capture(report, name, producer)

    def ingest_section():
        if ingest is None:
            raise ValueError("no ingest performed for this input")
        return dataclasses.replace(ingest, rejections=dict(sorted(ingest.rejections.items())))

    section("ingest", ingest_section)
    section(
        "network_summary",
        lambda: {
            "nodes": directed.node_count,
            "edges": directed.edge_count,
            "total_weight": directed.total_weight,
            "directed": net.directed,
            "categorised_nodes": len(net.categories or {}),
        },
    )

    cache: dict[str, Any] = {}

    def node_metrics() -> dict[str, metrics_mod.NodeMetrics]:
        if "metrics" not in cache:
            cache["metrics"] = metrics_mod.compute_node_metrics(directed, betweenness_weighted=weighted_betweenness)
        return cache["metrics"]

    def knn_curve() -> dict[int, float]:
        # from the node metrics' k_nn values, so `knn` runs once per report
        per_node = {label: m.knn_weighted for label, m in node_metrics().items()}
        return metrics_mod.knn_curve(directed, per_node)

    section("node_metrics", lambda: [m for _, m in sorted(node_metrics().items())])
    section("network_metrics", lambda: metrics_mod.compute_network_metrics(directed))

    def fits_section():
        out: dict[str, Any] = {}
        degree_samples = [m.degree for m in node_metrics().values() if m.degree >= 1]
        parts = {
            "degree_tail": lambda: powerlaw_mod.analyze_tail(
                degree_samples, n_boot=boot, seed=derive_seed(seed, _POWERLAW_DOMAIN)
            ),
            "strength_degree": lambda: powerlaw_mod.fit_strength_degree(directed),
            "betweenness_degree": lambda: powerlaw_mod.fit_betweenness_degree(node_metrics()),
            "knn_degree": lambda: powerlaw_mod.fit_knn_curve(knn_curve()),
        }
        for key, producer in parts.items():
            _capture(out, key, producer)
        return out

    section("fits", fits_section)
    section(
        "small_world",
        lambda: smallworld_mod.small_world_report(
            undirected_projection(directed),
            n_samples=sw_samples,
            seed=derive_seed(seed, _SMALLWORLD_DOMAIN),
            n_swaps=sw_swaps,
            lattice_swaps=sw_lattice_swaps,
        ),
    )

    def classification_section():
        return {
            "hubs_bottlenecks": classify_mod.classify_hubs_bottlenecks(node_metrics(), quantile),
            "roles": classify_mod.label_distributors_receivers(node_metrics(), role_threshold_sd),
        }

    section("classification", classification_section)

    section("resilience", lambda: {
        strategy: resilience_mod.attack(directed, strategy, step_fraction=attack_step,
                                        seed=derive_seed(seed, _ATTACK_DOMAIN))
        for strategy in sorted(set(attack_strategies))
    })

    if total > 0 and failures == total:
        report["all_sections_failed"] = True
    return report
