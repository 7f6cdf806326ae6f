"""Weighted directed transfer networks and their serialization."""
from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix

from .eventlog import AdmissionJourney

EDGE_LIST_HEADER = ["from", "to", "weight"]


@dataclass(frozen=True)
class TransferNetwork:
    """Simple graph with positive integer edge weights and no self-loops.

    Undirected networks store each edge once under the sorted node pair.
    Node categories are annotations and do not take part in equality.
    """

    nodes: frozenset[str]
    edges: Mapping[tuple[str, str], int]
    directed: bool = True
    categories: Mapping[str, str] | None = field(default=None, compare=False)

    def __post_init__(self):
        for (u, v), weight in self.edges.items():
            if u == v:
                raise ValueError(f"self-loop on {u!r}")
            if u not in self.nodes or v not in self.nodes:
                raise ValueError(f"edge ({u!r}, {v!r}) has endpoint outside nodes")
            if not isinstance(weight, int) or weight < 1:
                raise ValueError(f"edge ({u!r}, {v!r}) weight {weight!r} not a positive integer")
            if not self.directed and u > v:
                raise ValueError(f"undirected edge ({u!r}, {v!r}) not in canonical order")

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def total_weight(self) -> int:
        return sum(self.edges.values())

    def sorted_nodes(self) -> list[str]:
        return sorted(self.nodes)

    @functools.cached_property
    def core(self) -> GraphCore:
        """The network indexed once; every analysis reads its views from here."""
        return GraphCore.from_network(self)


class GraphCore:
    """Sorted node labels and the adjacency indexed by them.

    `weighted` is the out-adjacency as CSR with the integer edge weights as
    data; `out` shares its structure with data 1, and `inc` is the transpose
    of `out` (the breadth-first searches multiply with both). An undirected
    network stores each edge in both directions.
    """

    def __init__(self, labels: Sequence[str], weighted: csr_matrix, directed: bool):
        weighted.sum_duplicates()
        self.labels = list(labels)
        self.directed = directed
        self.weighted = weighted
        self.out = csr_matrix((np.ones(weighted.nnz), weighted.indices, weighted.indptr), shape=weighted.shape)
        self.inc = self.out.T.tocsr()

    @classmethod
    def from_network(cls, net: TransferNetwork) -> GraphCore:
        """Index a network; `TransferNetwork.core` calls this once per network."""
        labels = net.sorted_nodes()
        index = {label: i for i, label in enumerate(labels)}
        rows = [index[u] for u, _ in net.edges]
        cols = [index[v] for _, v in net.edges]
        weights = list(net.edges.values())
        if not net.directed:
            rows, cols, weights = rows + cols, cols + rows, weights + weights
        n = len(labels)
        weighted = csr_matrix((np.array(weights, dtype=np.int64), (rows, cols)), shape=(n, n))
        core = cls(labels, weighted, net.directed)
        core.index = index
        return core

    @property
    def n(self) -> int:
        return len(self.labels)

    @functools.cached_property
    def index(self) -> dict[str, int]:
        """Label -> node index."""
        return {label: i for i, label in enumerate(self.labels)}

    @functools.cached_property
    def projection(self) -> GraphCore:
        """The undirected projection: one edge per linked pair, antiparallel weights summed.

        An undirected network is its own projection.
        """
        if not self.directed:
            return self
        return GraphCore(self.labels, (self.weighted + self.weighted.T).tocsr(), directed=False)

    def subgraph(self, members: np.ndarray) -> GraphCore:
        """Core of the subgraph induced by the given (ascending) node indices."""
        return GraphCore([self.labels[i] for i in members], self.weighted[members][:, members], self.directed)

    def sources(self) -> np.ndarray:
        """Source index of every stored edge in CSR order; `out.indices` holds the targets."""
        return np.repeat(np.arange(self.n), np.diff(self.out.indptr))

    def degrees(self) -> np.ndarray:
        """In-degree plus out-degree of every node."""
        return np.diff(self.out.indptr) + np.diff(self.inc.indptr)


def build_network(journeys: Iterable[AdmissionJourney]) -> TransferNetwork:
    """Count consecutive stop pairs over all journeys into a directed network."""
    nodes: set[str] = set()
    edges: dict[tuple[str, str], int] = {}
    for journey in journeys:
        nodes.update(journey.stops)
        for u, v in zip(journey.stops, journey.stops[1:]):
            edges[(u, v)] = edges.get((u, v), 0) + 1
    return TransferNetwork(frozenset(nodes), edges, directed=True)


def undirected_projection(net: TransferNetwork) -> TransferNetwork:
    """Sum antiparallel weights into one undirected edge per node pair."""
    if not net.directed:
        return net
    edges: dict[tuple[str, str], int] = {}
    for (u, v), weight in net.edges.items():
        key = (u, v) if u <= v else (v, u)
        edges[key] = edges.get(key, 0) + weight
    return TransferNetwork(net.nodes, edges, directed=False, categories=net.categories)


def as_symmetric_directed(net: TransferNetwork) -> TransferNetwork:
    """Expand an undirected network into antiparallel directed edge pairs."""
    if net.directed:
        return net
    edges: dict[tuple[str, str], int] = {}
    for (u, v), weight in net.edges.items():
        edges[(u, v)] = weight
        edges[(v, u)] = weight
    return TransferNetwork(net.nodes, edges, directed=True, categories=net.categories)


def to_networkx(net: TransferNetwork) -> nx.DiGraph | nx.Graph:
    graph = nx.DiGraph() if net.directed else nx.Graph()
    for node in net.sorted_nodes():
        attrs = {}
        if net.categories and node in net.categories:
            attrs["category"] = net.categories[node]
        graph.add_node(node, **attrs)
    for (u, v), weight in sorted(net.edges.items()):
        graph.add_edge(u, v, weight=weight)
    return graph


def from_networkx(graph: nx.Graph) -> TransferNetwork:
    directed = graph.is_directed()
    nodes = frozenset(str(n) for n in graph.nodes)
    edges: dict[tuple[str, str], int] = {}
    for u, v, data in graph.edges(data=True):
        u, v = str(u), str(v)
        if not directed and u > v:
            u, v = v, u
        if (u, v) in edges:
            raise ValueError(f"duplicate edge ({u!r}, {v!r})")
        weight = data.get("weight", 1)
        if isinstance(weight, float) and not weight.is_integer():
            raise ValueError(f"edge ({u!r}, {v!r}) weight {weight!r} is not an integer")
        edges[(u, v)] = int(weight)
    categories = {
        str(n): str(data["category"]) for n, data in graph.nodes(data=True) if "category" in data
    }
    return TransferNetwork(nodes, edges, directed=directed, categories=categories or None)


def _export_edgelist(net: TransferNetwork) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(EDGE_LIST_HEADER)
    endpoints = {u for u, _ in net.edges} | {v for _, v in net.edges}
    for (u, v), weight in sorted(net.edges.items()):
        writer.writerow([u, v, weight])
    # isolated nodes travel as rows with an empty target and weight 0
    for node in sorted(net.nodes - endpoints):
        writer.writerow([node, "", 0])
    return buffer.getvalue().encode("utf-8")


def _import_edgelist(data: bytes, directed: bool) -> TransferNetwork:
    reader = csv.reader(io.StringIO(data.decode("utf-8-sig")))
    header = next(reader, None)
    if header != EDGE_LIST_HEADER:
        raise ValueError(f"expected header {EDGE_LIST_HEADER}, got {header}")
    nodes: set[str] = set()
    edges: dict[tuple[str, str], int] = {}
    for row in reader:
        if not row:
            continue
        if len(row) != 3:
            raise ValueError(f"edge-list row {row} does not have three columns")
        u, v, weight = row[0], row[1], int(row[2])
        if v == "":
            nodes.add(u)
            continue
        nodes.update((u, v))
        if not directed and u > v:
            u, v = v, u
        if (u, v) in edges:
            raise ValueError(f"duplicate edge-list row for ({u!r}, {v!r})")
        edges[(u, v)] = weight
    return TransferNetwork(frozenset(nodes), edges, directed=directed)


def _quote_dot(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _export_dot(net: TransferNetwork) -> bytes:
    kind, arrow = ("digraph", "->") if net.directed else ("graph", "--")
    lines = [f"{kind} transfers {{"]
    for node in net.sorted_nodes():
        category = (net.categories or {}).get(node)
        attr = f" [category={_quote_dot(category)}]" if category else ""
        lines.append(f"  {_quote_dot(node)}{attr};")
    for (u, v), weight in sorted(net.edges.items()):
        lines.append(f"  {_quote_dot(u)} {arrow} {_quote_dot(v)} [weight={weight}];")
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def export_network(net: TransferNetwork, fmt: str) -> bytes:
    """Serialize to one of 'graphml', 'dot', or 'edgelist'."""
    if fmt == "graphml":
        buffer = io.BytesIO()
        nx.write_graphml(to_networkx(net), buffer)
        return buffer.getvalue()
    if fmt == "dot":
        return _export_dot(net)
    if fmt == "edgelist":
        return _export_edgelist(net)
    raise ValueError(f"unsupported format {fmt!r}")


def import_network(data: bytes, fmt: str, directed: bool = True) -> TransferNetwork:
    """Parse a serialized network; edge lists need the directed flag supplied."""
    if fmt == "graphml":
        graph = nx.read_graphml(io.BytesIO(data))
        return from_networkx(graph)
    if fmt == "edgelist":
        return _import_edgelist(data, directed)
    raise ValueError(f"unsupported import format {fmt!r}")
