"""Assemble the JSON analysis report from the individual analysis sections."""
from __future__ import annotations

import hashlib
from typing import Any, Iterable

import numpy as np

from . import __version__
from . import classify as classify_mod
from . import metrics as metrics_mod
from . import powerlaw as powerlaw_mod
from . import resilience as resilience_mod
from . import smallworld as smallworld_mod
from .eventlog import IngestStats
from .network import TransferNetwork, as_symmetric_directed, undirected_projection

SECTIONS = (
    "ingest",
    "network_summary",
    "node_metrics",
    "network_metrics",
    "fits",
    "small_world",
    "classification",
    "resilience",
)

_POWERLAW_DOMAIN = 1
_SMALLWORLD_DOMAIN = 2
_ATTACK_DOMAIN = 3


def derive_seed(master: int, domain: int) -> int:
    """Stable per-component sub-seed from the single master seed."""
    return int(np.random.SeedSequence((master, domain)).generate_state(1)[0])


def input_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _with_reasons(payload: dict[str, Any], reasons: dict[str, str]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for key, value in payload.items():
        out[key] = value
        if value is None and key in reasons:
            out[f"{key}_reason"] = reasons[key]
    return out


def _serialize_node(metric: metrics_mod.NodeMetrics) -> dict[str, Any]:
    row: dict[str, Any] = {
        "label": metric.label,
        "degree": metric.degree,
        "in_degree": metric.in_degree,
        "out_degree": metric.out_degree,
        "net_connectivity": metric.net_connectivity,
        "strength": metric.strength,
        "in_strength": metric.in_strength,
        "out_strength": metric.out_strength,
        "clustering": metric.clustering,
        "betweenness": metric.betweenness,
        "knn_weighted": metric.knn_weighted,
    }
    if metric.knn_weighted is None:
        row["knn_weighted_reason"] = "isolated node"
    return row


def _serialize_network_metrics(m: metrics_mod.NetworkMetrics) -> dict[str, Any]:
    payload = {
        "node_count": m.node_count,
        "edge_count": m.edge_count,
        "total_weight": m.total_weight,
        "mean_edge_weight": m.mean_edge_weight,
        "reciprocity": m.reciprocity,
        "flow_hierarchy": m.flow_hierarchy,
        "global_clustering": m.global_clustering,
        "transitivity": m.transitivity,
        "avg_shortest_path": m.avg_shortest_path,
        "path_coverage": m.path_coverage,
        "avg_shortest_path_undirected": m.avg_shortest_path_undirected,
        "undirected_path_coverage": m.undirected_path_coverage,
        "assortativity": m.assortativity,
        "assortativity_undirected": m.assortativity_undirected,
    }
    out = _with_reasons(payload, dict(m.reasons))
    out["degree_distribution"] = {str(k): p for k, p in m.degree_distribution.items()}
    return out


def _serialize_power_fit(fit: powerlaw_mod.PowerLawFit) -> dict[str, Any]:
    return {
        "gamma": fit.gamma,
        "xmin": fit.xmin,
        "n_tail": fit.n_tail,
        "ks_stat": fit.ks_stat,
        "xmin_policy": fit.xmin_policy,
        "p_value": fit.p_value,
        "ci_low": fit.ci_low,
        "ci_high": fit.ci_high,
        "n_bootstrap": fit.n_bootstrap,
        "seed": fit.seed,
    }


def _serialize_regression(fit: powerlaw_mod.RegressionFit) -> dict[str, Any]:
    return {
        "kind": fit.kind,
        "coefficients": list(fit.coefficients),
        "baseline": fit.baseline,
        "residual_sd": fit.residual_sd,
        "outlier_threshold": fit.outlier_threshold,
        "outliers": [{"label": label, "studentized_residual": r} for label, r in fit.outliers],
    }


def _serialize_small_world(report: smallworld_mod.SmallWorldReport) -> dict[str, Any]:
    payload = {
        "clustering": report.clustering,
        "path_length": report.path_length,
        "path_coverage": report.path_coverage,
        "path_scope": "undirected-projection",
        "clustering_random": report.clustering_random,
        "path_length_random": report.path_length_random,
        "clustering_lattice": report.clustering_lattice,
        "sigma": report.sigma,
        "omega": report.omega,
    }
    out = _with_reasons(payload, dict(report.reasons))
    out.update(
        {
            "n_samples": report.n_samples,
            "seed": report.seed,
            "n_swaps_random": report.n_swaps_random,
            "n_swaps_lattice": report.n_swaps_lattice,
            "accepted_swaps_random": list(report.accepted_swaps_random),
            "accepted_swaps_lattice": list(report.accepted_swaps_lattice),
        }
    )
    return out


def _serialize_attack(result: resilience_mod.AttackResult) -> dict[str, Any]:
    return {
        "strategy": result.strategy,
        "recompute_policy": result.recompute_policy,
        "step_fraction": result.step_fraction,
        "seed": result.seed,
        "steps": [
            {
                "fraction_removed": step.fraction_removed,
                "wcc_fraction": step.wcc_fraction,
                "scc_fraction": step.scc_fraction,
                "efficiency": step.efficiency,
            }
            for step in result.steps
        ],
    }


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

    def section(name: str, producer) -> None:
        nonlocal failures, total
        if name in skip_set:
            return
        total += 1
        try:
            report[name] = producer()
        except Exception as exc:  # noqa: BLE001 - failures become report entries
            failures += 1
            report[name] = None
            report[f"{name}_reason"] = str(exc)

    def ingest_section():
        if ingest is None:
            raise ValueError("no ingest performed for this input")
        return {
            "rows_read": ingest.rows_read,
            "rows_rejected": ingest.rows_rejected,
            "rejections": dict(sorted(ingest.rejections.items())),
        }

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

    def knn_values() -> tuple:
        if "knn" not in cache:
            cache["knn"] = metrics_mod.knn(directed)
        return cache["knn"]

    def node_metrics() -> dict[str, metrics_mod.NodeMetrics]:
        if "metrics" not in cache:
            cache["metrics"] = metrics_mod.compute_node_metrics(
                directed, betweenness_weighted=weighted_betweenness, knn_values=knn_values()
            )
        return cache["metrics"]

    section("node_metrics", lambda: [_serialize_node(m) for _, m in sorted(node_metrics().items())])
    section("network_metrics", lambda: _serialize_network_metrics(metrics_mod.compute_network_metrics(directed)))

    def fits_section():
        out: dict[str, Any] = {}
        degree_samples = [m.degree for m in node_metrics().values() if m.degree >= 1]
        parts = {
            "degree_tail": lambda: _serialize_power_fit(
                powerlaw_mod.analyze_tail(degree_samples, n_boot=boot, seed=derive_seed(seed, _POWERLAW_DOMAIN))
            ),
            "strength_degree": lambda: _serialize_regression(powerlaw_mod.fit_strength_degree(directed)),
            "betweenness_degree": lambda: _serialize_regression(powerlaw_mod.fit_betweenness_degree(node_metrics())),
            "knn_degree": lambda: _serialize_regression(powerlaw_mod.fit_knn_curve(knn_values()[1])),
        }
        for key, producer in parts.items():
            try:
                out[key] = producer()
            except Exception as exc:  # noqa: BLE001
                out[key] = None
                out[f"{key}_reason"] = str(exc)
        return out

    section("fits", fits_section)
    section(
        "small_world",
        lambda: _serialize_small_world(
            smallworld_mod.small_world_report(
                undirected_projection(directed),
                n_samples=sw_samples,
                seed=derive_seed(seed, _SMALLWORLD_DOMAIN),
                n_swaps=sw_swaps,
                lattice_swaps=sw_lattice_swaps,
            )
        ),
    )

    def classification_section():
        table = classify_mod.classify_hubs_bottlenecks(node_metrics(), quantile)
        roles = classify_mod.label_distributors_receivers(node_metrics(), role_threshold_sd)
        return {
            "hubs_bottlenecks": {
                "quadrants": dict(sorted(table.quadrants.items())),
                "degree_threshold": table.degree_threshold,
                "betweenness_threshold": table.betweenness_threshold,
                "quantile": table.quantile,
            },
            "roles": {
                "labels": dict(sorted(roles.roles.items())),
                "threshold": roles.threshold,
                "threshold_sd": roles.threshold_sd,
            },
        }

    section("classification", classification_section)

    def resilience_section():
        out = {}
        for strategy in sorted(set(attack_strategies)):
            if strategy == resilience_mod.RANDOM:
                result = resilience_mod.attack(
                    directed, strategy, step_fraction=attack_step, seed=derive_seed(seed, _ATTACK_DOMAIN)
                )
            else:
                result = resilience_mod.attack(directed, strategy, step_fraction=attack_step)
            out[strategy] = _serialize_attack(result)
        return out

    section("resilience", resilience_section)

    if total > 0 and failures == total:
        report["all_sections_failed"] = True
    return report
