"""The stdlib GraphML codec against networkx, which wrote and read wardflow's GraphML before."""
import io

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import networkx_graphml, networkx_read_graphml
from wardflow.network import TransferNetwork, export_network, import_network

# characters XML 1.0 can carry, plus the ones the writer escapes
_ODD = "&<>\"'\t\n\r é—✓𝔸"
_xml_chars = st.characters(blacklist_categories=("Cs", "Cc", "Cn")) | st.sampled_from(_ODD)
labels = st.text(_xml_chars, max_size=5)
categories_text = st.text(_xml_chars, max_size=5)


@st.composite
def networks(draw):
    nodes = draw(st.lists(labels, max_size=8, unique=True))
    directed = draw(st.booleans())
    edges = {}
    if nodes:
        for u, v, weight in draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes),
                                                    st.integers(1, 10**12)), max_size=16)):
            if u != v:
                edges[(u, v) if directed or u < v else (v, u)] = weight
    categories = None
    if nodes and draw(st.booleans()):
        categories = draw(st.dictionaries(st.sampled_from(nodes), categories_text))
    return TransferNetwork(frozenset(nodes), edges, directed=directed, categories=categories)


@given(networks())
@settings(max_examples=300, deadline=None)
def test_export_is_the_networkx_bytes_and_reads_back(net):
    payload = export_network(net, "graphml")
    assert payload == networkx_graphml(net)
    back = import_network(payload, "graphml")
    assert back == net and back.directed == net.directed
    assert back.categories == (net.categories or None)
    assert networkx_read_graphml(payload) == back


# weights as networkx types them: long, integral and fractional double, or none
_weights = st.none() | st.integers(-2, 4) | st.sampled_from([1.0, 3.0, 2.5, 0.5, float("inf")])


@st.composite
def networkx_documents(draw):
    """GraphML written by networkx for graphs wardflow may or may not accept."""
    directed, multi = draw(st.booleans()), draw(st.booleans())
    graph = {(True, True): nx.MultiDiGraph, (True, False): nx.DiGraph,
             (False, True): nx.MultiGraph, (False, False): nx.Graph}[directed, multi]()
    names = st.sampled_from(["a", "b", "c", "d & e"])
    for node in draw(st.lists(names, max_size=3)):
        graph.add_node(node)
    for node, category in draw(st.dictionaries(names, categories_text | st.integers(0, 9), max_size=2)).items():
        graph.add_node(node, category=category)
    for u, v, weight in draw(st.lists(st.tuples(names, names, _weights), max_size=6)):
        graph.add_edge(u, v, **({} if weight is None else {"weight": weight}))
    buffer = io.BytesIO()
    nx.write_graphml(graph, buffer)
    return buffer.getvalue()


def _read(reader, data):
    try:
        net = reader(data)
    except ValueError:
        return "rejected"
    return net, net.directed, net.categories


@given(networkx_documents())
@settings(max_examples=300, deadline=None)
def test_reader_accepts_and_rejects_what_networkx_did(data):
    assert _read(lambda d: import_network(d, "graphml"), data) == _read(networkx_read_graphml, data)


def test_reader_takes_a_document_without_namespace_or_weights():
    data = (b'<graphml><key id="w" for="edge" attr.name="weight" attr.type="double"/>'
            b'<graph edgedefault="undirected"><node id="b"/><node id="a"/><node id="z"/>'
            b'<edge source="b" target="a"/><edge source="b" target="z"><data key="w">4.0</data></edge>'
            b'</graph></graphml>')
    net = import_network(data, "graphml")
    assert not net.directed and net.nodes == {"a", "b", "z"}
    assert net.edges == {("a", "b"): 1, ("b", "z"): 4}
    assert net == networkx_read_graphml(data)


@pytest.mark.parametrize("data, message", [
    (b"<graphml><graph>", "malformed"),
    (b"<graphml/>", "no GraphML graph"),
    (b'<graphml><graph edgedefault="directed"><node id="a"><data key="k">x</data></node></graph></graphml>',
     "undeclared key"),
    (b'<graphml><graph edgedefault="directed"><edge source="a" target="b" directed="false"/></graph></graphml>',
     "contradicts"),
])
def test_reader_turns_bad_documents_into_value_errors(data, message):
    with pytest.raises(ValueError, match=message):
        import_network(data, "graphml")


def test_a_carriage_return_in_a_category_reads_back_as_itself():
    net = TransferNetwork(frozenset({"a", "b"}), {("a", "b"): 2}, categories={"a": "icu\rstep-down", "b": "ed\r\n"})
    payload = export_network(net, "graphml")
    assert b"icu&#13;step-down" in payload and b"\r" not in payload
    back = import_network(payload, "graphml")
    assert back == net and back.categories == {"a": "icu\rstep-down", "b": "ed\r\n"}
