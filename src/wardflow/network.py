"""Weighted directed transfer networks and their serialization."""
from __future__ import annotations

import csv
import functools
import io
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Mapping
from xml.etree import ElementTree

from .eventlog import AdmissionJourney, csv_rows

if TYPE_CHECKING:
    from .paths import GraphCore

EDGE_LIST_HEADER = ["from", "to", "weight"]
# a GraphML document opens with "<" after an optional UTF-8 byte-order mark and XML whitespace,
# or does so in UTF-16 after a UTF-16 byte-order mark; no edge list does, as its header starts "from"
_GRAPHML_START = re.compile(
    rb"(?:\xef\xbb\xbf)?[ \t\r\n]*<|\xff\xfe(?:[ \t\r\n]\x00)*<\x00|\xfe\xff(?:\x00[ \t\r\n])*\x00<")


def network_format(data: bytes) -> str:
    """The format of a serialized network, read from its first bytes: 'graphml' or 'edgelist'.

    Anything that does not open as a GraphML document is taken for an edge
    list, whose header check then reports a bad first row.
    """
    return "graphml" if _GRAPHML_START.match(data) else "edgelist"


_GRAPHML_NS = "{http://graphml.graphdrawing.org/xmlns}"
_GRAPHML_HEAD = (
    "<?xml version='1.0' encoding='utf-8'?>\n"
    '<graphml xmlns="http://graphml.graphdrawing.org/xmlns" '
    'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" '
    'xsi:schemaLocation="http://graphml.graphdrawing.org/xmlns '
    'http://graphml.graphdrawing.org/xmlns/1.0/graphml.xsd">\n'
)
# GraphML attr.type -> Python value; a key without attr.type holds strings
_GRAPHML_TYPES = {"int": int, "long": int, "integer": int, "float": float, "double": float, "string": str}
# an edge-list weight, as the edge-list writer writes it; int() would also take "1_0" or non-ASCII digits
_DIGITS = re.compile(r"[0-9]+")
# characters outside XML 1.0's Char production, which no GraphML file can hold
_NOT_XML_CHAR = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")
# the largest total weight for which every strength and weight sum is exact in int64 and in float64
MAX_TOTAL_WEIGHT = 2**53 - 1


def _check_total(total: int, counted: str = "") -> None:
    if total > MAX_TOTAL_WEIGHT:
        raise ValueError(f"total edge weight{counted} is {total}, above the limit 2^53 - 1 = {MAX_TOTAL_WEIGHT}")


@dataclass(frozen=True)
class TransferNetwork:
    """Simple graph with positive integer edge weights and no self-loops.

    Undirected networks store each edge once under the sorted node pair.
    Node categories are annotations and do not take part in equality. The
    total weight may not exceed `MAX_TOTAL_WEIGHT`.
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
            if not isinstance(weight, int) or isinstance(weight, bool) or weight < 1:
                raise ValueError(f"edge ({u!r}, {v!r}) weight {weight!r} not a positive integer")
            if not self.directed and u > v:
                raise ValueError(f"undirected edge ({u!r}, {v!r}) not in canonical order")
        _check_total(self.total_weight)

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
        """The network indexed once; every analysis reads its views from here.

        numpy and scipy load here, on first use, so building and converting
        networks never import them.
        """
        from .paths import GraphCore

        return GraphCore.from_network(self)


def build_network(journeys: Iterable[AdmissionJourney]) -> TransferNetwork:
    """Count consecutive stop pairs over all journeys into a directed network.

    One pass over any iterable: no journey is kept once its stops are
    counted, so journeys streamed from `reconstruct_journeys` are freed one
    by one.
    """
    nodes: set[str] = set()

    def stop_pairs():
        for journey in journeys:
            path = journey.stops
            nodes.update(path)
            yield zip(path, path[1:])

    # Counter counts in C and keeps first-seen order, so edges come out in the order a loop would add them
    edges = Counter(chain.from_iterable(stop_pairs()))
    return TransferNetwork(frozenset(nodes), dict(edges), directed=True)


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


def _export_edgelist(net: TransferNetwork) -> bytes:
    if "" in net.nodes:
        # an empty target marks an isolated node, so such a label would not read back
        raise ValueError("an edge list cannot carry a node with an empty label")
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
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"an edge list must be UTF-8 text: {exc}") from None
    with csv_rows(io.StringIO(text), "edge list") as reader:
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
            if not _DIGITS.fullmatch(row[2]):
                raise ValueError(f"edge-list row {row} has weight {row[2]!r}, not ASCII digits")
            u, v, weight = row[0], row[1], int(row[2])
            if u == "":
                raise ValueError(f"edge-list row {row} has an empty source")
            if v == "":
                if weight != 0:
                    raise ValueError(f"edge-list row {row} has an empty target but weight {weight}, not 0")
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


def _xml_text(text: str) -> str:
    """Escape character data as ElementTree does, and a carriage return as `&#13;`.

    ElementTree writes a carriage return in element text as it is, and every
    XML parser reads that back as a newline; the reference reads back as a
    carriage return.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace("\r", "&#13;")


def _xml_attribute(text: str) -> str:
    """Escape an attribute value as ElementTree does."""
    return _xml_text(text).replace('"', "&quot;").replace("\n", "&#10;").replace("\t", "&#09;")


def _export_graphml(net: TransferNetwork) -> bytes:
    """The bytes `networkx.write_graphml` writes for the network, formatted directly.

    Nodes come in label order, each with its category if it has one, then
    edges in (source, target) order, each with its weight. Keys are numbered
    in order of first use (category before weight) and, as networkx inserts
    each new key at the front, listed last-numbered first.

    A carriage return in a category is the one difference: it is written
    as `&#13;`, so that it reads back as itself. A label or category with a
    character that XML 1.0 cannot carry is a ValueError.
    """
    categories = net.categories or {}
    labels = net.sorted_nodes()
    for label in labels:
        if _NOT_XML_CHAR.search(label):
            raise ValueError(f"GraphML cannot carry node label {label!r}: XML 1.0 has no such character")
        if _NOT_XML_CHAR.search(categories.get(label, "")):
            raise ValueError(f"GraphML cannot carry category {categories[label]!r} of node {label!r}: "
                             "XML 1.0 has no such character")
    ids = {label: _xml_attribute(label) for label in labels}
    keys = []
    if any(label in categories for label in labels):
        keys.append(("node", "category", "string"))
    if net.edges:
        keys.append(("edge", "weight", "long"))
    key_id = {name: f"d{i}" for i, (_, name, _) in enumerate(keys)}
    parts = [_GRAPHML_HEAD]
    for scope, name, kind in reversed(keys):
        parts.append(f'  <key id="{key_id[name]}" for="{scope}" attr.name="{name}" attr.type="{kind}" />\n')
    graph = f'  <graph edgedefault="{"directed" if net.directed else "undirected"}"'
    if not labels:
        parts.append(f"{graph} />\n</graphml>\n")
        return "".join(parts).encode("utf-8", "xmlcharrefreplace")
    parts.append(f"{graph}>\n")
    for label in labels:
        if label not in categories:
            parts.append(f'    <node id="{ids[label]}" />\n')
            continue
        category = _xml_text(categories[label])
        # ElementTree closes an element without text in place
        data = f">{category}</data>" if category else " />"
        parts.append(f'    <node id="{ids[label]}">\n      <data key="{key_id["category"]}"{data}\n    </node>\n')
    for (u, v), weight in sorted(net.edges.items()):
        parts.append(f'    <edge source="{ids[u]}" target="{ids[v]}">\n'
                     f'      <data key="{key_id["weight"]}">{weight}</data>\n    </edge>\n')
    parts.append("  </graph>\n</graphml>\n")
    return "".join(parts).encode("utf-8", "xmlcharrefreplace")


def _graphml_value(element: ElementTree.Element, name: str, keys: dict, tag: str, owner: str):
    """The value of the element's last <data> for attribute `name`, or None without one.

    Values are converted by their key's attr.type; an empty <data> reads as
    "" and one with child elements (a yEd extension) is skipped. Numeric
    text must be ASCII without "_", which int() and float() would also take.
    """
    value = None
    for data in element:
        if data.tag != tag:
            continue
        if data.get("key") not in keys:
            raise ValueError(f"GraphML data refers to undeclared key {data.get('key')!r}")
        key_name, kind = keys[data.get("key")]
        if key_name != name or len(data):
            continue
        if kind not in _GRAPHML_TYPES:
            raise ValueError(f"GraphML attribute {name!r} has unsupported type {kind!r}")
        convert, text = _GRAPHML_TYPES[kind], data.text or ""
        if convert is not str and (not text.isascii() or "_" in text):
            raise ValueError(f"GraphML {name} {text!r} of {owner} is not an ASCII number without '_'")
        value = convert(text) if text else ""
    return value


def _import_graphml(data: bytes) -> TransferNetwork:
    """Read the first graph of a GraphML document.

    Accepts what the networkx reader accepted: integral float weights, a
    missing weight (1), node categories, isolated nodes, undirected graphs and
    a document without the GraphML namespace. Rejects non-integer weights and
    parallel edges. Attributes other than `weight` and `category` are not read.
    """
    try:
        root = ElementTree.fromstring(data)
    except ElementTree.ParseError as exc:
        raise ValueError(f"malformed GraphML: {exc}") from None
    ns = _GRAPHML_NS if root.tag == _GRAPHML_NS + "graphml" else ""
    keys = {key.get("id"): (key.get("attr.name"), key.get("attr.type", "string")) for key in root.iterfind(ns + "key")}
    graph = root.find(ns + "graph")
    if graph is None:
        raise ValueError("no GraphML graph element")
    directed = graph.get("edgedefault") == "directed"
    node_tag, edge_tag, data_tag = ns + "node", ns + "edge", ns + "data"
    nodes: set[str] = set()
    categories: dict[str, str] = {}
    edges: dict[tuple[str, str], int] = {}
    for element in graph:
        if element.tag == node_tag:
            node = element.get("id")
            if node is None:
                raise ValueError("GraphML node without an id")
            nodes.add(node)
            category = _graphml_value(element, "category", keys, data_tag, f"node {node!r}")
            if category is not None:
                categories[node] = str(category)
        elif element.tag == edge_tag:
            u, v = element.get("source"), element.get("target")
            if u is None or v is None:
                raise ValueError("GraphML edge without a source or target")
            if element.get("directed") == ("false" if directed else "true"):
                raise ValueError(f"edge ({u!r}, {v!r}) contradicts edgedefault={graph.get('edgedefault')!r}")
            nodes.update((u, v))
            if not directed and u > v:
                u, v = v, u
            if (u, v) in edges:
                raise ValueError(f"duplicate edge ({u!r}, {v!r})")
            weight = _graphml_value(element, "weight", keys, data_tag, f"edge ({u!r}, {v!r})")
            if weight is None:
                weight = 1
            if isinstance(weight, float) and not weight.is_integer():
                raise ValueError(f"edge ({u!r}, {v!r}) weight {weight!r} is not an integer")
            edges[(u, v)] = int(weight)
        elif element.tag == ns + "hyperedge":
            raise ValueError("GraphML hyperedges are not supported")
    return TransferNetwork(frozenset(nodes), edges, directed=directed, categories=categories or None)


def export_network(net: TransferNetwork, fmt: str) -> bytes:
    """Serialize to one of 'graphml', 'dot', or 'edgelist'."""
    if fmt == "graphml":
        return _export_graphml(net)
    if fmt == "dot":
        return _export_dot(net)
    if fmt == "edgelist":
        return _export_edgelist(net)
    raise ValueError(f"unsupported format {fmt!r}")


def import_network(data: bytes, fmt: str, directed: bool = True) -> TransferNetwork:
    """Parse a serialized network; edge lists need the directed flag supplied.

    An undirected network's total weight counts each edge twice against
    `MAX_TOTAL_WEIGHT`, as the analysis reads it in both directions.
    """
    if fmt == "graphml":
        net = _import_graphml(data)
    elif fmt == "edgelist":
        net = _import_edgelist(data, directed)
    else:
        raise ValueError(f"unsupported import format {fmt!r}")
    if not net.directed:
        _check_total(2 * net.total_weight, ", each undirected edge counted twice,")
    return net
