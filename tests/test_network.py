import io
import re
import weakref
from datetime import datetime, timedelta

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wardflow.eventlog import AdmissionJourney
from wardflow.network import (
    TransferNetwork,
    as_symmetric_directed,
    build_network,
    export_network,
    import_network,
    undirected_projection,
)

T0 = datetime(2016, 3, 1)


def journey(admission_id, *stops):
    times = tuple(T0 + timedelta(minutes=10 * i) for i in range(len(stops)))
    return AdmissionJourney(admission_id, stops, times)


def net_of(edges, directed=True, extra_nodes=(), categories=None):
    nodes = {u for u, _ in edges} | {v for _, v in edges} | set(extra_nodes)
    return TransferNetwork(frozenset(nodes), dict(edges), directed=directed, categories=categories)


PATHS = [("A", "B", "C"), ("C", "A"), ("D",), ("B", "A", "B", "C"), ("C", "A", "D")]


def test_build_network_counts_a_one_shot_generator_like_a_list():
    expected = build_network([journey(f"a{i}", *path) for i, path in enumerate(PATHS)])
    refs = []

    def one_shot():
        for i, path in enumerate(PATHS):
            # only the journey being counted is still alive when the next one is pulled
            assert all(ref() is None for ref in refs[:-1])
            refs.append(weakref.ref(fresh := journey(f"a{i}", *path)))
            yield fresh

    net = build_network(one_shot())
    assert net == expected
    assert list(net.edges.items()) == list(expected.edges.items())
    assert len(refs) == len(PATHS)


def test_build_round_trip_journey():
    net = build_network([journey("a1", "A", "B", "A")])
    assert net.edges == {("A", "B"): 1, ("B", "A"): 1}
    assert net.directed


def test_build_empty():
    net = build_network([])
    assert net.node_count == 0 and net.edge_count == 0


def test_build_hand_counted_weights():
    net = build_network([
        journey("a1", "A", "B", "C"),
        journey("a2", "A", "B"),
        journey("a3", "B", "C"),
    ])
    assert net.edges == {("A", "B"): 2, ("B", "C"): 2}


def test_build_keeps_single_stop_journeys_as_isolated_nodes():
    net = build_network([journey("a1", "A", "B"), journey("a2", "Z")])
    assert "Z" in net.nodes
    assert net.edges == {("A", "B"): 1}


def test_build_total_weight_matches_transfer_count():
    journeys = [journey("a1", "A", "B", "C", "A"), journey("a2", "B", "C"), journey("a3", "C")]
    net = build_network(journeys)
    assert net.total_weight == sum(len(j.stops) - 1 for j in journeys)


def test_build_invariant_to_journey_order():
    journeys = [journey("a1", "A", "B", "C"), journey("a2", "C", "A"), journey("a3", "B", "A")]
    assert build_network(journeys) == build_network(list(reversed(journeys)))


def test_projection_sums_antiparallel_weights():
    net = net_of({("A", "B"): 3, ("B", "A"): 2})
    projected = undirected_projection(net)
    assert projected.edges == {("A", "B"): 5}
    assert not projected.directed


def test_projection_of_edgeless_network():
    net = TransferNetwork(frozenset({"A", "B"}), {}, directed=True)
    assert undirected_projection(net).edge_count == 0


def test_projection_triangle():
    net = net_of({("A", "B"): 1, ("B", "C"): 1, ("C", "A"): 1})
    projected = undirected_projection(net)
    assert projected.edges == {("A", "B"): 1, ("B", "C"): 1, ("A", "C"): 1}


def test_projection_preserves_total_weight():
    net = net_of({("A", "B"): 3, ("B", "A"): 2, ("B", "C"): 4})
    assert undirected_projection(net).total_weight == net.total_weight


def test_symmetric_directed_expansion():
    projected = net_of({("A", "B"): 5}, directed=False)
    expanded = as_symmetric_directed(projected)
    assert expanded.edges == {("A", "B"): 5, ("B", "A"): 5}


def test_validation_rejects_bad_networks():
    with pytest.raises(ValueError):
        net_of({("A", "A"): 1})
    with pytest.raises(ValueError):
        TransferNetwork(frozenset({"A"}), {("A", "B"): 1})
    with pytest.raises(ValueError):
        net_of({("A", "B"): 0})
    with pytest.raises(ValueError):
        net_of({("A", "B"): True})
    with pytest.raises(ValueError):
        net_of({("B", "A"): 1}, directed=False)


def test_total_weight_limit_counts_an_undirected_edge_twice_when_read():
    limit = 2**53 - 1
    for directed in (True, False):
        net_of({("A", "B"): limit - 1, ("B", "C"): 1}, directed=directed)
        with pytest.raises(ValueError, match=r"above the limit 2\^53 - 1"):
            net_of({("A", "B"): limit, ("B", "C"): 1}, directed=directed)
    # the projection of a network within the limit is within it
    heavy = net_of({("A", "B"): limit - 1, ("B", "C"): 1})
    assert undirected_projection(heavy).total_weight == limit
    # a read undirected network is analysed in both directions
    import_network(f"from,to,weight\nA,B,{limit // 2}\n".encode(), "edgelist", directed=False)
    with pytest.raises(ValueError, match="each undirected edge counted twice"):
        import_network(f"from,to,weight\nA,B,{limit // 2 + 1}\n".encode(), "edgelist", directed=False)


@pytest.mark.parametrize("bad", ["\x00", "\x01", "\x08", "\x0b", "\x0c", "\x1f", "\ufffe", "\uffff"])
def test_graphml_export_rejects_labels_xml_cannot_carry(bad):
    with pytest.raises(ValueError, match=re.escape(f"node label {f'a{bad}b'!r}")):
        export_network(net_of({(f"a{bad}b", "c"): 1}), "graphml")
    with pytest.raises(ValueError, match="category"):
        export_network(net_of({("a", "c"): 1}, categories={"c": f"icu{bad}"}), "graphml")
    # the other formats carry it
    net = net_of({(f"a{bad}b", "c"): 1})
    assert import_network(export_network(net, "edgelist"), "edgelist") == net


def test_edgelist_export_shape():
    net = net_of({("A", "B"): 1})
    assert export_network(net, "edgelist").decode() == "from,to,weight\nA,B,1\n"


def test_edgelist_export_empty_network_is_header_only():
    net = TransferNetwork(frozenset(), {})
    assert export_network(net, "edgelist").decode() == "from,to,weight\n"


def test_unsupported_format_errors():
    net = net_of({("A", "B"): 1})
    with pytest.raises(ValueError):
        export_network(net, "gexf")
    with pytest.raises(ValueError):
        import_network(b"", "dot")


def test_dot_export_contains_nodes_edges_and_categories():
    net = net_of({("A", "B"): 2}, categories={"A": "medical"})
    text = export_network(net, "dot").decode()
    assert "digraph" in text
    assert '"A" [category="medical"];' in text
    assert '"A" -> "B" [weight=2];' in text


def test_graphml_round_trip_keeps_categories_and_isolated_nodes():
    net = net_of({("A", "B"): 3}, extra_nodes=("Z",), categories={"A": "medical", "Z": "imaging"})
    back = import_network(export_network(net, "graphml"), "graphml")
    assert back == net
    assert back.categories == {"A": "medical", "Z": "imaging"}


networks = st.builds(
    lambda pairs, extra: net_of(
        {(f"n{a}", f"n{b}"): w for (a, b), w in pairs.items() if a != b},
        extra_nodes=[f"n{i}" for i in extra],
    ),
    st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.integers(min_value=1, max_value=9),
        max_size=14,
    ),
    st.lists(st.integers(6, 8), max_size=2),
)


@given(networks)
@settings(max_examples=80, deadline=None)
def test_round_trip_property(net):
    assert import_network(export_network(net, "graphml"), "graphml") == net
    assert import_network(export_network(net, "edgelist"), "edgelist", directed=True) == net


@given(networks)
@settings(max_examples=80, deadline=None)
def test_projection_weight_preservation_property(net):
    assert undirected_projection(net).total_weight == net.total_weight


def test_edgelist_duplicate_rows_are_an_error():
    with pytest.raises(ValueError, match="duplicate"):
        import_network(b"from,to,weight\nA,B,3\nA,B,5\n", "edgelist", directed=True)
    # an undirected edge list names each pair once, in either orientation
    with pytest.raises(ValueError, match="duplicate"):
        import_network(b"from,to,weight\nA,B,3\nB,A,5\n", "edgelist", directed=False)
    both_ways = import_network(b"from,to,weight\nA,B,3\nB,A,5\n", "edgelist", directed=True)
    assert both_ways.total_weight == 8


def test_edgelist_short_row_is_an_error():
    with pytest.raises(ValueError, match="three columns"):
        import_network(b"from,to,weight\nA,B\n", "edgelist", directed=True)


def test_edgelist_empty_target_with_a_weight_is_an_error():
    # an empty target marks an isolated node, which carries weight 0
    with pytest.raises(ValueError, match="empty target"):
        import_network(b"from,to,weight\nA,B,1\nc,,7\n", "edgelist", directed=True)
    isolated = import_network(b"from,to,weight\nA,B,1\nc,,0\n", "edgelist", directed=True)
    assert isolated == net_of({("A", "B"): 1}, extra_nodes=("c",))


def test_edgelist_empty_source_is_an_error():
    with pytest.raises(ValueError, match="empty source"):
        import_network(b"from,to,weight\n,B,2\n", "edgelist", directed=True)


def test_edgelist_export_rejects_an_empty_node_label():
    # written as "a,,2", the edge would read back as an isolated "a"
    net = net_of({("a", ""): 2})
    with pytest.raises(ValueError, match="empty label"):
        export_network(net, "edgelist")
    assert import_network(export_network(net, "graphml"), "graphml") == net


def test_graphml_rejects_non_integer_weights():
    graph = nx.DiGraph()
    graph.add_edge("A", "B", weight=2.5)
    buffer = io.BytesIO()
    nx.write_graphml(graph, buffer)
    with pytest.raises(ValueError, match="not an integer"):
        import_network(buffer.getvalue(), "graphml")


def test_graphml_accepts_integral_float_weights():
    graph = nx.DiGraph()
    graph.add_edge("A", "B", weight=3.0)
    buffer = io.BytesIO()
    nx.write_graphml(graph, buffer)
    assert import_network(buffer.getvalue(), "graphml").edges == {("A", "B"): 3}


def test_graphml_parallel_edges_are_an_error():
    graph = nx.MultiDiGraph()
    graph.add_edge("A", "B", weight=3)
    graph.add_edge("A", "B", weight=5)
    buffer = io.BytesIO()
    nx.write_graphml(graph, buffer)
    with pytest.raises(ValueError, match="duplicate"):
        import_network(buffer.getvalue(), "graphml")
