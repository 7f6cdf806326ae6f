"""Per-node and whole-network measures for transfer networks.

Directed quantities (degrees, strengths, reciprocity, flow hierarchy,
betweenness, assortativity, path length) are defined on the directed
network; clustering and nearest-neighbour degree follow the undirected
projection, whose conventions the small-world machinery expects.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from scipy.sparse.csgraph import connected_components

from . import paths
from .network import TransferNetwork

DIRECTED_SCOPE = "directed"
PROJECTION_SCOPE = "undirected-projection"


@dataclass(frozen=True)
class NodeMetrics:
    label: str
    degree: int
    in_degree: int
    out_degree: int
    net_connectivity: int
    strength: int
    in_strength: int
    out_strength: int
    clustering: float
    betweenness: float
    knn_weighted: float | None


@dataclass(frozen=True)
class NetworkMetrics:
    node_count: int
    edge_count: int
    total_weight: int
    mean_edge_weight: float | None
    reciprocity: float | None
    flow_hierarchy: float | None
    global_clustering: float | None
    transitivity: float | None
    avg_shortest_path: float | None
    path_coverage: float | None
    avg_shortest_path_undirected: float | None
    undirected_path_coverage: float | None
    assortativity: float | None
    assortativity_undirected: float | None
    degree_distribution: Mapping[int, float]
    reasons: Mapping[str, str] = field(default_factory=dict)


def _require_directed(net: TransferNetwork, op: str) -> None:
    if not net.directed:
        raise ValueError(f"{op} is defined on directed networks; symmetrize first")


def degrees(net: TransferNetwork) -> dict[str, tuple[int, int, int, int]]:
    """Per node (k, in_degree, out_degree, net_connectivity=in-out)."""
    _require_directed(net, "degrees")
    core = net.core
    in_deg = np.diff(core.inc.indptr).tolist()
    out_deg = np.diff(core.out.indptr).tolist()
    return {label: (i + o, i, o, i - o) for label, i, o in zip(core.labels, in_deg, out_deg)}


def strengths(net: TransferNetwork) -> dict[str, tuple[int, int, int]]:
    """Per node (s, in_strength, out_strength); s sums all incident weights."""
    _require_directed(net, "strengths")
    core = net.core
    in_s = np.asarray(core.weighted.sum(axis=0)).ravel().tolist()
    out_s = np.asarray(core.weighted.sum(axis=1)).ravel().tolist()
    return {label: (i + o, i, o) for label, i, o in zip(core.labels, in_s, out_s)}


def reciprocity(net: TransferNetwork) -> float | None:
    """Fraction of directed edges whose reverse edge also exists."""
    _require_directed(net, "reciprocity")
    if not net.edges:
        return None
    reciprocated = sum(1 for (u, v) in net.edges if (v, u) in net.edges)
    return reciprocated / len(net.edges)


def flow_hierarchy(net: TransferNetwork) -> float | None:
    """Fraction of edges that sit on no directed cycle.

    An edge is cyclic exactly when both endpoints share a strongly
    connected component (self-loops are excluded by construction, so a
    shared component always has size >= 2).
    """
    _require_directed(net, "flow_hierarchy")
    if not net.edges:
        return None
    core = net.core
    _, component = connected_components(core.out, directed=True, connection="strong")
    cyclic = int(np.count_nonzero(component[core.sources()] == component[core.out.indices]))
    return 1.0 - cyclic / len(net.edges)


def clustering(net: TransferNetwork) -> tuple[dict[str, float], float | None, float | None]:
    """Local coefficients, their mean, and transitivity, all unweighted.

    Computed on the undirected projection. Nodes with fewer than two
    neighbours get coefficient 0.
    """
    core = net.core.projection
    adjacency = core.out
    degree = np.diff(adjacency.indptr)
    # A^2 restricted to A's entries counts each triangle at a node twice
    links = (np.asarray((adjacency @ adjacency).multiply(adjacency).sum(axis=1)).ravel() // 2).astype(np.int64)
    local = {
        label: l / (d * (d - 1) / 2) if d >= 2 else 0.0
        for label, d, l in zip(core.labels, degree.tolist(), links.tolist())
    }
    closed_triples = int(links.sum())  # each triangle counted once per corner
    triples = int((degree * (degree - 1) // 2).sum())
    # label order, so the mean does not follow the string hash seed
    c_av = sum(local.values()) / len(local) if local else None
    transitivity = closed_triples / triples if triples else None
    return local, c_av, transitivity


def betweenness(net: TransferNetwork, use_weights: bool = False) -> dict[str, float]:
    """Normalized betweenness centrality (Brandes accumulation).

    With use_weights, edge length is 1/weight so heavier traffic means a
    shorter edge (Dijkstra searches, in networkx's bits); the default treats
    every edge as one hop and runs the batched BFS of `paths`.
    """
    core = net.core
    scores = paths.weighted_betweenness(core) if use_weights else paths.betweenness(core)
    return {label: float(b) for label, b in zip(core.labels, scores)}


def _pearson(xs: np.ndarray, ys: np.ndarray) -> float | None:
    if len(xs) < 2:
        return None
    sx = xs.std()
    sy = ys.std()
    if sx < 1e-15 or sy < 1e-15:
        return None
    return float(((xs - xs.mean()) * (ys - ys.mean())).mean() / (sx * sy))


def _endpoints(net: TransferNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Node indices of each edge's endpoints, in `net.edges` order (the order `_pearson` sums in)."""
    index = net.core.index
    return (np.array([index[u] for u, _ in net.edges], dtype=np.int64),
            np.array([index[v] for _, v in net.edges], dtype=np.int64))


def assortativity(net: TransferNetwork) -> float | None:
    """Pearson correlation of (source out-degree, target in-degree) over edges."""
    _require_directed(net, "assortativity")
    if len(net.edges) < 2:
        return None
    core = net.core
    sources, targets = _endpoints(net)
    xs = np.diff(core.out.indptr)[sources].astype(float)
    ys = np.diff(core.inc.indptr)[targets].astype(float)
    return _pearson(xs, ys)


def assortativity_undirected(net: TransferNetwork) -> float | None:
    """Degree correlation over the undirected projection, both edge orientations."""
    sources, targets = _endpoints(net)
    low, high = np.minimum(sources, targets), np.maximum(sources, targets)
    # projected edges in the order of their first directed edge
    _, first = np.unique(low * net.node_count + high, return_index=True)
    first.sort()
    if len(first) < 2:
        return None
    degree = np.diff(net.core.projection.out.indptr)
    ends = np.column_stack([degree[low[first]], degree[high[first]]]).astype(float)
    return _pearson(ends.ravel(), ends[:, ::-1].ravel())


def knn(net: TransferNetwork) -> tuple[dict[str, float | None], dict[int, float]]:
    """Weighted average nearest-neighbour degree on the undirected projection.

    Returns per-node values (None for isolated nodes) and their `knn_curve`.
    """
    core = net.core.projection
    degree = np.diff(core.weighted.indptr)
    strength = np.asarray(core.weighted.sum(axis=1)).ravel()
    mixed = core.weighted @ degree
    per_node = {
        label: m / s if k else None
        for label, k, s, m in zip(core.labels, degree.tolist(), strength.tolist(), mixed.tolist())
    }
    return per_node, knn_curve(net, per_node)


def knn_curve(net: TransferNetwork, per_node: Mapping[str, float | None]) -> dict[int, float]:
    """Mean of the per-node k_nn values over the nodes of each projected degree, isolated nodes left out."""
    core = net.core.projection
    by_degree: dict[int, list[float]] = {}
    for label, k in zip(core.labels, np.diff(core.out.indptr).tolist()):
        if k:
            by_degree.setdefault(k, []).append(per_node[label])
    return {k: sum(vals) / len(vals) for k, vals in sorted(by_degree.items())}


def avg_shortest_path(net: TransferNetwork, scope: str = DIRECTED_SCOPE) -> tuple[float | None, float | None]:
    """Mean hop count over ordered reachable pairs in the giant component.

    Directed scope uses the largest strongly connected component;
    projection scope the largest connected component. Also returns the
    fraction of nodes the component covers.
    """
    if scope not in (DIRECTED_SCOPE, PROJECTION_SCOPE):
        raise ValueError(f"unknown scope {scope!r}")
    if not net.nodes:
        return None, None
    directed = scope == DIRECTED_SCOPE
    if directed:
        _require_directed(net, "avg_shortest_path(directed)")
    core = net.core if directed else net.core.projection
    connection = "strong" if directed else "weak"
    _, labels = connected_components(core.out, directed=directed, connection=connection)
    counts = np.bincount(labels)
    giant = int(counts.argmax())
    members = np.flatnonzero(labels == giant)
    coverage = len(members) / net.node_count
    if len(members) < 2:
        return None, coverage
    # every ordered pair of the giant component is reachable inside it
    by_distance = paths.distance_counts(core.subgraph(members))
    return sum(d * count for d, count in enumerate(by_distance)) / sum(by_distance), coverage


def compute_node_metrics(net: TransferNetwork, betweenness_weighted: bool = False) -> dict[str, NodeMetrics]:
    """Per-node metrics of a directed network."""
    _require_directed(net, "compute_node_metrics")
    degree_map = degrees(net)
    strength_map = strengths(net)
    local_clustering, _, _ = clustering(net)
    centrality = betweenness(net, use_weights=betweenness_weighted)
    knn_map, _ = knn(net)
    out = {}
    for node in net.core.labels:
        k, in_deg, out_deg, nc = degree_map[node]
        s, in_s, out_s = strength_map[node]
        out[node] = NodeMetrics(
            label=node,
            degree=k,
            in_degree=in_deg,
            out_degree=out_deg,
            net_connectivity=nc,
            strength=s,
            in_strength=in_s,
            out_strength=out_s,
            clustering=local_clustering[node],
            betweenness=centrality[node],
            knn_weighted=knn_map[node],
        )
    return out


def compute_network_metrics(net: TransferNetwork) -> NetworkMetrics:
    _require_directed(net, "compute_network_metrics")
    reasons: dict[str, str] = {}

    def absent(name: str, reason: str) -> None:
        reasons[name] = reason

    edge_count = net.edge_count
    total = net.total_weight
    mean_weight = total / edge_count if edge_count else None
    if mean_weight is None:
        absent("mean_edge_weight", "network has no edges")

    r = reciprocity(net) if edge_count else None
    if r is None:
        absent("reciprocity", "network has no edges")
    h = flow_hierarchy(net) if edge_count else None
    if h is None:
        absent("flow_hierarchy", "network has no edges")

    _, c_av, transitivity = clustering(net)
    if c_av is None:
        absent("global_clustering", "network has no nodes")
    if transitivity is None:
        absent("transitivity", "no connected triples")

    l_directed, coverage_directed = avg_shortest_path(net, DIRECTED_SCOPE)
    if l_directed is None:
        absent("avg_shortest_path", "no reachable ordered pairs in the giant strongly connected component")
    l_projection, coverage_projection = avg_shortest_path(net, PROJECTION_SCOPE)
    if l_projection is None:
        absent("avg_shortest_path_undirected", "no reachable pairs in the giant component")

    a = assortativity(net)
    if a is None:
        absent("assortativity", "fewer than 2 edges or zero degree variance at edge endpoints")
    a_undirected = assortativity_undirected(net)
    if a_undirected is None:
        absent("assortativity_undirected", "fewer than 2 projected edges or zero degree variance")

    by_degree = np.bincount(net.core.degrees()).tolist()
    p_k = {k: count / net.node_count for k, count in enumerate(by_degree) if count}

    return NetworkMetrics(
        node_count=net.node_count,
        edge_count=edge_count,
        total_weight=total,
        mean_edge_weight=mean_weight,
        reciprocity=r,
        flow_hierarchy=h,
        global_clustering=c_av,
        transitivity=transitivity,
        avg_shortest_path=l_directed,
        path_coverage=coverage_directed,
        avg_shortest_path_undirected=l_projection,
        undirected_path_coverage=coverage_projection,
        assortativity=a,
        assortativity_undirected=a_undirected,
        degree_distribution=p_k,
        reasons=reasons,
    )
