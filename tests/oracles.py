"""Brute-force reference implementations, independent of the library internals.

Everything here works on plain edge dictionaries with explicit loops, BFS
via deque, and exhaustive path enumeration, so the main implementations
(numpy / scipy backed) are checked against a genuinely different route.
The earlier ingest, the networkx GraphML path, the one-replicate-at-a-time
tail bootstrap, and the networkx generators and weighted betweenness are kept
at the end as the references their replacements must agree with.
"""
from __future__ import annotations

import csv
import io
import statistics
from collections import deque
from dataclasses import dataclass
from datetime import datetime
from itertools import combinations

import networkx as nx
import numpy as np

from wardflow.eventlog import CategoryMap, IngestStats, LogSchema, SchemaError
from wardflow.network import TransferNetwork
from wardflow.powerlaw import FIXED, PowerLawFit, _prepare, _replicate_rng, fit_tail, sample_tail
from wardflow.synth import CONFIGURATION, PREFERENTIAL_ATTACHMENT, RING_REWIRE, ModelSpec, node_label


def random_directed_network(rng: np.random.Generator, max_nodes: int = 7) -> TransferNetwork:
    n = int(rng.integers(2, max_nodes + 1))
    labels = [f"n{i}" for i in range(n)]
    edges = {}
    p = rng.uniform(0.15, 0.6)
    for u in labels:
        for v in labels:
            if u != v and rng.random() < p:
                edges[(u, v)] = int(rng.integers(1, 6))
    return TransferNetwork(frozenset(labels), edges, directed=True)


def out_neighbors(net: TransferNetwork) -> dict[str, list[str]]:
    adj: dict[str, list[str]] = {node: [] for node in net.nodes}
    for u, v in net.edges:
        adj[u].append(v)
    return adj


def undirected_neighbors(net: TransferNetwork) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {node: set() for node in net.nodes}
    for u, v in net.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def brute_degrees(net: TransferNetwork) -> dict[str, tuple[int, int, int, int]]:
    result = {}
    for node in net.nodes:
        ins = sum(1 for (u, v) in net.edges if v == node)
        outs = sum(1 for (u, v) in net.edges if u == node)
        result[node] = (ins + outs, ins, outs, ins - outs)
    return result


def brute_strengths(net: TransferNetwork) -> dict[str, tuple[int, int, int]]:
    result = {}
    for node in net.nodes:
        ins = sum(w for (u, v), w in net.edges.items() if v == node)
        outs = sum(w for (u, v), w in net.edges.items() if u == node)
        result[node] = (ins + outs, ins, outs)
    return result


def brute_reciprocity(net: TransferNetwork) -> float | None:
    if not net.edges:
        return None
    return sum(1 for (u, v) in net.edges if (v, u) in net.edges) / len(net.edges)


def _reachable(adj: dict[str, list[str]], start: str) -> set[str]:
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for other in adj[node]:
            if other not in seen:
                seen.add(other)
                queue.append(other)
    return seen


def brute_flow_hierarchy(net: TransferNetwork) -> float | None:
    """Edge (u, v) is cyclic iff v can reach u; no condensation involved."""
    if not net.edges:
        return None
    adj = out_neighbors(net)
    cyclic = sum(1 for (u, v) in net.edges if u in _reachable(adj, v))
    return 1.0 - cyclic / len(net.edges)


def brute_clustering(net: TransferNetwork) -> tuple[dict[str, float], float | None, float | None]:
    adj = undirected_neighbors(net)
    local = {}
    for node, around in adj.items():
        if len(around) < 2:
            local[node] = 0.0
            continue
        pairs = list(combinations(sorted(around), 2))
        closed = sum(1 for a, b in pairs if b in adj[a])
        local[node] = closed / len(pairs)
    c_av = sum(local.values()) / len(local) if local else None
    triangles = 0
    for a, b, c in combinations(sorted(adj), 3):
        if b in adj[a] and c in adj[a] and c in adj[b]:
            triangles += 1
    triples = sum(len(v) * (len(v) - 1) // 2 for v in adj.values())
    transitivity = 3 * triangles / triples if triples else None
    return local, c_av, transitivity


def _all_shortest_paths(adj: dict[str, list[str]], source: str, target: str) -> list[list[str]]:
    """Every shortest simple path via exhaustive DFS (fine for <= 7 nodes)."""
    best: list[list[str]] = []
    best_len = [float("inf")]

    def walk(path: list[str]) -> None:
        node = path[-1]
        if len(path) - 1 > best_len[0]:
            return
        if node == target:
            if len(path) - 1 < best_len[0]:
                best_len[0] = len(path) - 1
                best.clear()
            if len(path) - 1 == best_len[0]:
                best.append(list(path))
            return
        for other in adj[node]:
            if other not in path:
                path.append(other)
                walk(path)
                path.pop()

    walk([source])
    return best


def brute_betweenness(net: TransferNetwork) -> dict[str, float]:
    """Directed normalized betweenness by enumerating all shortest paths."""
    adj = out_neighbors(net)
    nodes = sorted(net.nodes)
    n = len(nodes)
    score = {node: 0.0 for node in nodes}
    for s in nodes:
        for t in nodes:
            if s == t:
                continue
            paths = _all_shortest_paths(adj, s, t)
            if not paths:
                continue
            for node in nodes:
                if node in (s, t):
                    continue
                through = sum(1 for path in paths if node in path[1:-1])
                score[node] += through / len(paths)
    if n > 2:
        for node in nodes:
            score[node] /= (n - 1) * (n - 2)
    return score


def brute_assortativity(net: TransferNetwork) -> float | None:
    if len(net.edges) < 2:
        return None
    deg = brute_degrees(net)
    xs = [deg[u][2] for (u, v) in net.edges]
    ys = [deg[v][1] for (u, v) in net.edges]
    try:
        return statistics.correlation(xs, ys)
    except statistics.StatisticsError:
        return None


def brute_knn(net: TransferNetwork) -> dict[str, float | None]:
    adj = undirected_neighbors(net)

    def undirected_weight(a: str, b: str) -> int:
        return net.edges.get((a, b), 0) + net.edges.get((b, a), 0)

    result: dict[str, float | None] = {}
    for node, around in adj.items():
        if not around:
            result[node] = None
            continue
        total = sum(undirected_weight(node, other) for other in around)
        mixed = sum(undirected_weight(node, other) * len(adj[other]) for other in around)
        result[node] = mixed / total
    return result


def _bfs_distances(adj: dict[str, list[str]], source: str) -> dict[str, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for other in adj[node]:
            if other not in dist:
                dist[other] = dist[node] + 1
                queue.append(other)
    return dist


def brute_avg_path_candidates(net: TransferNetwork, directed: bool) -> tuple[set[float], float | None]:
    """Mean path lengths of every maximum-size component, plus the coverage.

    When several components tie for largest, any of them is a legitimate
    giant, so the caller accepts a match against any candidate value.
    """
    if directed:
        adj = out_neighbors(net)
        reach = {node: _reachable(adj, node) for node in net.nodes}
        components: list[set[str]] = []
        assigned = set()
        for node in sorted(net.nodes):
            if node in assigned:
                continue
            component = {other for other in reach[node] if node in reach[other]}
            components.append(component)
            assigned |= component
    else:
        adj = {node: sorted(around) for node, around in undirected_neighbors(net).items()}
        components = []
        assigned = set()
        for node in sorted(net.nodes):
            if node in assigned:
                continue
            component = _reachable(adj, node)
            components.append(component)
            assigned |= component

    size = max(len(c) for c in components)
    coverage = size / len(net.nodes)
    candidates = set()
    for component in components:
        if len(component) != size or size < 2:
            continue
        if directed:
            local_adj = {u: [v for v in out_neighbors(net)[u] if v in component] for u in component}
        else:
            local_adj = {u: [v for v in undirected_neighbors(net)[u] if v in component] for u in component}
        total = 0
        pairs = 0
        for source in component:
            dist = _bfs_distances(local_adj, source)
            for target in component:
                if target != source and target in dist:
                    total += dist[target]
                    pairs += 1
        candidates.add(total / pairs)
    return candidates, coverage


# Event-log ingest as it was written first: csv.DictReader rows, one frozen
# dataclass per event, timestamps parsed row by row. The compact parser in
# wardflow.eventlog must agree with it on events, tallies and journeys, and
# wardflow.network.build_network with the loop that first counted the edges.


@dataclass(frozen=True)
class RefEvent:
    admission_id: str
    location: str
    timestamp: datetime
    source_row: int


@dataclass(frozen=True)
class RefJourney:
    admission_id: str
    stops: tuple[str, ...]
    times: tuple[datetime, ...]

    def __post_init__(self):
        if len(self.stops) < 1 or len(self.stops) != len(self.times):
            raise ValueError("journey needs matching, non-empty stops and times")
        for a, b in zip(self.times, self.times[1:]):
            if b < a:
                raise ValueError(f"times not non-decreasing in {self.admission_id!r}")
        for a, b in zip(self.stops, self.stops[1:]):
            if a == b:
                raise ValueError(f"consecutive duplicate stop {a!r} in {self.admission_id!r}")


def _ref_parse_timestamp(raw: str, fmt: str | None) -> datetime:
    if fmt is None:
        return datetime.fromisoformat(raw)
    return datetime.strptime(raw, fmt)


def ref_parse_event_log(text: str, schema: LogSchema = LogSchema()) -> tuple[list[RefEvent], IngestStats]:
    reader = csv.DictReader(io.StringIO(text, newline=""), delimiter=schema.delimiter)
    header = reader.fieldnames or []
    for column in (schema.admission_column, schema.location_column, schema.timestamp_column):
        if column not in header:
            raise SchemaError(f"column {column!r} not in header {header}")

    events: list[RefEvent] = []
    stats = IngestStats()
    aware: bool | None = None
    for row in reader:
        stats.rows_read += 1
        admission = (row.get(schema.admission_column) or "").strip()
        if not admission:
            stats.reject("admission_id")
            continue
        location = (row.get(schema.location_column) or "").strip()
        if not location:
            stats.reject("location")
            continue
        raw_ts = (row.get(schema.timestamp_column) or "").strip()
        try:
            timestamp = _ref_parse_timestamp(raw_ts, schema.timestamp_format)
        except ValueError:
            stats.reject("timestamp")
            continue
        row_aware = timestamp.utcoffset() is not None
        if aware is None:
            aware = row_aware
        elif row_aware != aware:
            stats.reject("timezone")
            continue
        events.append(RefEvent(admission, location, timestamp, source_row=stats.rows_read))
    return events, stats


def ref_reconstruct_journeys(events: list[RefEvent]) -> list[RefJourney]:
    by_admission: dict[str, list[RefEvent]] = {}
    for event in events:
        by_admission.setdefault(event.admission_id, []).append(event)

    journeys = []
    for admission_id in sorted(by_admission):
        ordered = sorted(by_admission[admission_id], key=lambda e: (e.timestamp, e.source_row))
        stops: list[str] = []
        times: list[datetime] = []
        for event in ordered:
            if stops and stops[-1] == event.location:
                continue
            stops.append(event.location)
            times.append(event.timestamp)
        journeys.append(RefJourney(admission_id, tuple(stops), tuple(times)))
    return journeys


def ref_apply_category_map(journeys: list[RefJourney], category_map: CategoryMap) -> list[RefJourney]:
    mapped = []
    for journey in journeys:
        stops: list[str] = []
        times: list[datetime] = []
        for stop, time in zip(journey.stops, journey.times):
            label = category_map.resolve(stop)
            if stops and stops[-1] == label:
                continue
            stops.append(label)
            times.append(time)
        mapped.append(RefJourney(journey.admission_id, tuple(stops), tuple(times)))
    return mapped


def ref_build_network(journeys) -> TransferNetwork:
    """`build_network` as a loop over stop pairs; edges in first-seen order, which sets `_pearson`'s summation order."""
    nodes: set[str] = set()
    edges: dict[tuple[str, str], int] = {}
    for journey in journeys:
        nodes.update(journey.stops)
        for u, v in zip(journey.stops, journey.stops[1:]):
            edges[(u, v)] = edges.get((u, v), 0) + 1
    return TransferNetwork(frozenset(nodes), edges, directed=True)


# GraphML through networkx: the writer and reader wardflow used before its
# own codec in `wardflow.network`, kept here as the reference it must match.


def networkx_graphml(net: TransferNetwork) -> bytes:
    """`nx.write_graphml` of the network, carriage returns in categories as `&#13;`.

    Nodes come in label order with their categories, then sorted edges.
    """
    graph = nx.DiGraph() if net.directed else nx.Graph()
    for node in net.sorted_nodes():
        attrs = {}
        if net.categories and node in net.categories:
            attrs["category"] = net.categories[node]
        graph.add_node(node, **attrs)
    for (u, v), weight in sorted(net.edges.items()):
        graph.add_edge(u, v, weight=weight)
    buffer = io.BytesIO()
    nx.write_graphml(graph, buffer)
    # networkx writes a carriage return in element text as it is, where it
    # reads back as a newline; wardflow writes the reference, which reads back
    # as itself. Attributes come escaped, so element text holds every raw one
    return buffer.getvalue().replace(b"\r", b"&#13;")


def networkx_read_graphml(data: bytes) -> TransferNetwork:
    """`nx.read_graphml`, then the checks of the former networkx conversion: no parallel or fractional edges."""
    graph = nx.read_graphml(io.BytesIO(data))
    directed = graph.is_directed()
    edges: dict[tuple[str, str], int] = {}
    for u, v, data in graph.edges(data=True):
        if not directed and u > v:
            u, v = v, u
        if (u, v) in edges:
            raise ValueError(f"duplicate edge ({u!r}, {v!r})")
        weight = data.get("weight", 1)
        if isinstance(weight, float) and not weight.is_integer():
            raise ValueError(f"edge ({u!r}, {v!r}) weight {weight!r} is not an integer")
        edges[(u, v)] = int(weight)
    categories = {n: str(data["category"]) for n, data in graph.nodes(data=True) if "category" in data}
    return TransferNetwork(frozenset(graph.nodes), edges, directed=directed, categories=categories or None)


# The tail bootstrap as it ran before replicates were fitted in blocks: one
# replicate at a time, each drawn, then refit by its own fit_tail call.


def _ref_refit(replicate: np.ndarray, fit: PowerLawFit) -> PowerLawFit:
    fixed = fit.xmin if fit.xmin_policy == FIXED else None
    return fit_tail(replicate, xmin=fixed)


def ref_gof_pvalue(fit: PowerLawFit, samples, n_boot: int, seed: int) -> float:
    if n_boot < 1:
        raise ValueError("n_boot must be >= 1")
    x = _prepare(samples)
    below = x[x < fit.xmin]
    n = len(x)
    p_below = len(below) / n

    exceed = 0
    failed = 0
    for i in range(n_boot):
        rng = _replicate_rng(seed, 1, i)
        n_below = rng.binomial(n, p_below) if len(below) else 0
        parts = []
        if n_below:
            parts.append(rng.choice(below, size=n_below, replace=True))
        if n - n_below:
            parts.append(sample_tail(fit.gamma, fit.xmin, n - n_below, rng))
        replicate = np.concatenate(parts)
        try:
            refit = _ref_refit(replicate, fit)
        except ValueError:
            failed += 1
            continue
        if refit.ks_stat >= fit.ks_stat:
            exceed += 1
    if failed > 0.1 * n_boot:
        raise ValueError(f"{failed}/{n_boot} bootstrap replicates failed to refit")
    usable = n_boot - failed
    return exceed / usable


def ref_bootstrap_ci(samples, n_boot: int, seed: int, level: float = 0.95,
                     xmin: int | None = None) -> tuple[float, float]:
    if n_boot < 1:
        raise ValueError("n_boot must be >= 1")
    x = _prepare(samples)
    reference = fit_tail(x, xmin=xmin)
    gammas = []
    failed = 0
    for i in range(n_boot):
        rng = _replicate_rng(seed, 2, i)
        replicate = x[rng.integers(0, len(x), size=len(x))]
        try:
            gammas.append(_ref_refit(replicate, reference).gamma)
        except ValueError:
            failed += 1
    if failed > 0.1 * n_boot:
        raise ValueError(f"{failed}/{n_boot} bootstrap replicates failed to refit")
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(np.asarray(gammas), [alpha, 1.0 - alpha])
    return min(float(lo), reference.gamma), max(float(hi), reference.gamma)


# The networkx calls `wardflow.synth.generate_network` and weighted
# `wardflow.metrics.betweenness` made before they replayed them; each must
# give these nodes, edges in this order, and scores with these bits.


def networkx_generate_network(spec: ModelSpec) -> TransferNetwork:
    if spec.family == PREFERENTIAL_ATTACHMENT:
        graph = nx.barabasi_albert_graph(spec.n, spec.m, seed=spec.seed)
    elif spec.family == RING_REWIRE:
        graph = nx.watts_strogatz_graph(spec.n, spec.k, spec.p, seed=spec.seed)
    elif spec.family == CONFIGURATION:
        graph = nx.Graph(nx.configuration_model(list(spec.degrees), seed=spec.seed))  # collapse parallel edges
        graph.remove_edges_from(nx.selfloop_edges(graph))
    else:
        graph = nx.gnp_random_graph(spec.n, spec.p, seed=spec.seed)
    labels = {i: node_label(i, spec.n) for i in graph.nodes}
    edges = {tuple(sorted((labels[i], labels[j]))): 1 for i, j in graph.edges}
    return TransferNetwork(frozenset(labels.values()), edges, directed=False)


def networkx_weighted_betweenness(net: TransferNetwork) -> dict[str, float]:
    """Normalized betweenness with edge length 1/weight, nodes in label order."""
    graph = nx.DiGraph() if net.directed else nx.Graph()
    graph.add_nodes_from(net.sorted_nodes())
    graph.add_weighted_edges_from(((u, v, 1.0 / w) for (u, v), w in sorted(net.edges.items())), weight="distance")
    result = nx.betweenness_centrality(graph, normalized=True, weight="distance")
    return {node: float(b) for node, b in result.items()}
