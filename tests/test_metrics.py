import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_assortativity,
    brute_avg_path_candidates,
    brute_betweenness,
    brute_clustering,
    brute_degrees,
    brute_flow_hierarchy,
    brute_knn,
    brute_reciprocity,
    brute_strengths,
    random_directed_network,
)
from wardflow import metrics
from wardflow.metrics import (
    DIRECTED_SCOPE,
    PROJECTION_SCOPE,
    assortativity,
    assortativity_undirected,
    avg_shortest_path,
    betweenness,
    clustering,
    compute_network_metrics,
    compute_node_metrics,
    degrees,
    flow_hierarchy,
    knn,
    knn_curve,
    reciprocity,
    strengths,
)
from wardflow.network import TransferNetwork, as_symmetric_directed
from wardflow.report import _plain

TOL = 1e-9


def net_of(edges, directed=True, extra_nodes=()):
    nodes = {u for u, _ in edges} | {v for _, v in edges} | set(extra_nodes)
    return TransferNetwork(frozenset(nodes), dict(edges), directed=directed)


def complete_directed(labels, weight=1):
    return net_of({(u, v): weight for u in labels for v in labels if u != v})


def test_degrees_single_edge():
    result = degrees(net_of({("A", "B"): 1}))
    assert result["A"] == (1, 0, 1, -1)
    assert result["B"] == (1, 1, 0, 1)


def test_degrees_antiparallel_pair_counts_twice():
    result = degrees(net_of({("A", "B"): 1, ("B", "A"): 1}))
    assert result["A"] == (2, 1, 1, 0)
    assert result["B"] == (2, 1, 1, 0)


def test_degrees_hand_counted():
    result = degrees(net_of({("A", "B"): 1, ("A", "C"): 1, ("B", "C"): 1, ("C", "D"): 1}))
    assert result["C"] == (3, 2, 1, 1)


def test_net_connectivity_sums_to_zero():
    net = random_directed_network(np.random.default_rng(7))
    assert sum(v[3] for v in degrees(net).values()) == 0


def test_strengths_single_weighted_edge():
    result = strengths(net_of({("A", "B"): 5}))
    assert result["A"] == (5, 0, 5)
    assert result["B"] == (5, 5, 0)


def test_strengths_equal_degree_for_unit_weights():
    net = random_directed_network(np.random.default_rng(3))
    unit = net_of({edge: 1 for edge in net.edges})
    k = degrees(unit)
    s = strengths(unit)
    assert all(s[node][0] == k[node][0] for node in unit.nodes)


def test_strengths_hand_sum():
    assert strengths(net_of({("A", "B"): 3, ("C", "B"): 4}))["B"] == (7, 7, 0)


def test_strength_sums_match_total_weight():
    net = random_directed_network(np.random.default_rng(11))
    s = strengths(net)
    assert sum(v[1] for v in s.values()) == net.total_weight
    assert sum(v[2] for v in s.values()) == net.total_weight
    assert sum(v[0] for v in s.values()) == 2 * net.total_weight


def test_reciprocity_examples():
    assert reciprocity(net_of({("A", "B"): 1, ("B", "C"): 1, ("C", "A"): 1})) == 0.0
    assert reciprocity(net_of({("A", "B"): 1, ("B", "A"): 1})) == 1.0
    assert reciprocity(net_of({("A", "B"): 1, ("B", "A"): 1, ("B", "C"): 1})) == pytest.approx(2 / 3)
    assert reciprocity(TransferNetwork(frozenset({"A"}), {})) is None


def test_flow_hierarchy_examples():
    dag = net_of({("A", "B"): 1, ("A", "C"): 1, ("B", "C"): 1})
    assert flow_hierarchy(dag) == 1.0
    cycle = net_of({("A", "B"): 1, ("B", "C"): 1, ("C", "A"): 1})
    assert flow_hierarchy(cycle) == 0.0
    mixed = net_of({("A", "B"): 1, ("B", "A"): 1, ("B", "C"): 1})
    assert flow_hierarchy(mixed) == pytest.approx(1 / 3)
    assert flow_hierarchy(TransferNetwork(frozenset({"A"}), {})) is None


def test_clustering_complete_graph():
    _, c_av, transitivity = clustering(complete_directed("ABCD"))
    assert c_av == 1.0
    assert transitivity == 1.0


def test_clustering_star_is_zero():
    local, c_av, _ = clustering(net_of({("H", f"L{i}"): 1 for i in range(4)}))
    assert c_av == 0.0
    assert all(value == 0.0 for value in local.values())


def test_clustering_triangle_with_pendant():
    net = net_of({("A", "B"): 1, ("B", "C"): 1, ("C", "A"): 1, ("C", "D"): 1})
    local, c_av, transitivity = clustering(net)
    assert local["A"] == 1.0 and local["B"] == 1.0
    assert local["C"] == pytest.approx(1 / 3)
    assert local["D"] == 0.0
    assert c_av == pytest.approx(7 / 12)
    assert transitivity == pytest.approx(3 / 5)


def test_betweenness_undirected_path():
    net = net_of({("A", "B"): 1, ("B", "C"): 1}, directed=False)
    result = betweenness(net)
    assert result["B"] == pytest.approx(1.0)
    assert result["A"] == result["C"] == 0.0


def test_betweenness_complete_graph_zero():
    assert all(b == 0.0 for b in betweenness(complete_directed("ABCDE")).values())


def test_betweenness_weighted_prefers_heavy_route():
    # A->H->B carries heavy traffic, the direct A->B edge is light
    net = net_of({("A", "H"): 10, ("H", "B"): 10, ("A", "B"): 1})
    unweighted = betweenness(net, use_weights=False)
    weighted = betweenness(net, use_weights=True)
    assert unweighted["H"] == 0.0
    assert weighted["H"] > 0.0


def test_assortativity_star_undefined():
    assert assortativity(net_of({("H", f"L{i}"): 1 for i in range(5)})) is None


def test_assortativity_matches_direct_pearson():
    net = random_directed_network(np.random.default_rng(23))
    expected = brute_assortativity(net)
    actual = assortativity(net)
    assert actual == pytest.approx(expected, abs=TOL)


def test_assortativity_ignores_weights():
    net = random_directed_network(np.random.default_rng(29))
    doubled = net_of({edge: 2 * w for edge, w in net.edges.items()})
    assert assortativity(net) == pytest.approx(assortativity(doubled), abs=TOL)


def test_knn_regular_ring():
    edges = {(f"n{i}", f"n{(i + 1) % 6}"): 1 for i in range(6)}
    per_node, curve = knn(net_of(edges))
    assert all(value == pytest.approx(2.0) for value in per_node.values())
    assert curve == {2: pytest.approx(2.0)}


def test_knn_star():
    n = 5
    per_node, _ = knn(net_of({("H", f"L{i}"): 1 for i in range(n)}))
    assert per_node["H"] == pytest.approx(1.0)
    for i in range(n):
        assert per_node[f"L{i}"] == pytest.approx(n)


def test_knn_weighted_hand_example():
    # projection: A-B w=3, A-C w=1, B-C w=2, C-D w=4
    net = net_of({("A", "B"): 3, ("A", "C"): 1, ("B", "C"): 2, ("C", "D"): 4})
    per_node, _ = knn(net)
    # degrees: A=2, B=2, C=3, D=1
    assert per_node["A"] == pytest.approx((3 * 2 + 1 * 3) / 4, abs=TOL)
    assert per_node["B"] == pytest.approx((3 * 2 + 2 * 3) / 5, abs=TOL)
    assert per_node["C"] == pytest.approx((1 * 2 + 2 * 2 + 4 * 1) / 7, abs=TOL)
    assert per_node["D"] == pytest.approx(3.0, abs=TOL)


def test_knn_of_a_heavy_edge_rounds_and_does_not_wrap():
    # 2^52 x 2,101 is past int64; in float64 it is exact
    edges = {("a", "c"): 2**52} | {("c", f"leaf{i}"): 1 for i in range(2100)}
    per_node, _ = knn(net_of(edges))
    assert per_node["a"] == 2101.0


def test_avg_path_undirected_path_graph():
    net = net_of({("A", "B"): 1, ("B", "C"): 1}, directed=False)
    value, coverage = avg_shortest_path(net, PROJECTION_SCOPE)
    assert value == pytest.approx(4 / 3)
    assert coverage == 1.0


def test_avg_path_complete_graph():
    value, coverage = avg_shortest_path(complete_directed("ABCD"), DIRECTED_SCOPE)
    assert value == pytest.approx(1.0)
    assert coverage == 1.0


def test_avg_path_absent_when_no_pairs():
    net = net_of({("A", "B"): 1})  # SCCs are singletons
    value, coverage = avg_shortest_path(net, DIRECTED_SCOPE)
    assert value is None
    assert coverage == pytest.approx(0.5)


def test_weight_scaling_invariance():
    net = random_directed_network(np.random.default_rng(31))
    scaled = TransferNetwork(net.nodes, {edge: 3 * w for edge, w in net.edges.items()})
    assert degrees(net) == degrees(scaled)
    assert clustering(net) == clustering(scaled)
    assert betweenness(net) == betweenness(scaled)
    assert reciprocity(net) == reciprocity(scaled)
    assert flow_hierarchy(net) == flow_hierarchy(scaled)
    assert avg_shortest_path(net, DIRECTED_SCOPE) == avg_shortest_path(scaled, DIRECTED_SCOPE)
    a, b = assortativity(net), assortativity(scaled)
    assert (a is None and b is None) or a == pytest.approx(b, abs=TOL)
    s_net = strengths(net)
    s_scaled = strengths(scaled)
    assert all(s_scaled[n][0] == 3 * s_net[n][0] for n in net.nodes)


def _assert_network_matches_oracles(net):
    assert degrees(net) == brute_degrees(net)
    assert strengths(net) == brute_strengths(net)

    expected_r = brute_reciprocity(net)
    actual_r = reciprocity(net)
    if expected_r is None:
        assert actual_r is None
    else:
        assert actual_r == pytest.approx(expected_r, abs=TOL)

    expected_h = brute_flow_hierarchy(net)
    actual_h = flow_hierarchy(net)
    if expected_h is None:
        assert actual_h is None
    else:
        assert actual_h == pytest.approx(expected_h, abs=TOL)

    local, c_av, transitivity = clustering(net)
    b_local, b_c_av, b_transitivity = brute_clustering(net)
    for node in net.nodes:
        assert local[node] == pytest.approx(b_local[node], abs=TOL)
    assert c_av == pytest.approx(b_c_av, abs=TOL)
    if b_transitivity is None:
        assert transitivity is None
    else:
        assert transitivity == pytest.approx(b_transitivity, abs=TOL)

    expected_b = brute_betweenness(net)
    for node, value in betweenness(net).items():
        assert value == pytest.approx(expected_b[node], abs=TOL)

    expected_a = brute_assortativity(net)
    actual_a = assortativity(net)
    if expected_a is None:
        assert actual_a is None
    else:
        assert actual_a == pytest.approx(expected_a, abs=TOL)

    expected_knn = brute_knn(net)
    per_node, _ = knn(net)
    for node in net.nodes:
        if expected_knn[node] is None:
            assert per_node[node] is None
        else:
            assert per_node[node] == pytest.approx(expected_knn[node], abs=TOL)

    for directed in (True, False):
        scope = DIRECTED_SCOPE if directed else PROJECTION_SCOPE
        candidates, coverage = brute_avg_path_candidates(net, directed)
        value, actual_coverage = avg_shortest_path(net, scope)
        assert actual_coverage == pytest.approx(coverage, abs=TOL)
        if not candidates:
            assert value is None
        else:
            assert any(value == pytest.approx(c, abs=TOL) for c in candidates)


@pytest.mark.parametrize("seed", range(25))
def test_small_graphs_match_oracles(seed):
    net = random_directed_network(np.random.default_rng(seed))
    _assert_network_matches_oracles(net)


def test_compute_node_metrics_assembles_consistently():
    net = random_directed_network(np.random.default_rng(41))
    table = compute_node_metrics(net)
    degree_map = degrees(net)
    for label, metric in table.items():
        assert metric.degree == degree_map[label][0]
        assert metric.strength >= metric.degree  # weights >= 1
        assert 0.0 <= metric.betweenness <= 1.0
        assert 0.0 <= metric.clustering <= 1.0


def test_compute_network_metrics_reasons_and_distribution():
    empty = TransferNetwork(frozenset({"A", "B"}), {})
    summary = compute_network_metrics(empty)
    assert summary.reciprocity is None
    assert _plain(summary)["reciprocity_reason"] == "network has no edges"
    assert summary.degree_distribution == {0: 1.0}

    net = net_of({("A", "B"): 2, ("B", "A"): 1, ("B", "C"): 1})
    summary = compute_network_metrics(net)
    assert summary.mean_edge_weight == pytest.approx(4 / 3)
    assert math.isclose(sum(summary.degree_distribution.values()), 1.0)


@st.composite
def undirected_networks(draw):
    """Undirected networks of up to 8 linked nodes and one or two isolated ones."""
    linked = [f"n{i}" for i in range(draw(st.integers(0, 8)))]
    pairs = [(u, v) for i, u in enumerate(linked) for v in linked[i + 1:]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = draw(st.lists(st.integers(1, 10**6), min_size=len(chosen), max_size=len(chosen)))
    isolated = [f"z{i}" for i in range(draw(st.integers(1, 2)))]
    return TransferNetwork(frozenset(linked + isolated), dict(zip(chosen, weights)), directed=False)


# every public function of `metrics`, each as the calls that read a network
DIRECTION_CALLS = {
    "degrees": [degrees],
    "strengths": [strengths],
    "reciprocity": [reciprocity],
    "flow_hierarchy": [flow_hierarchy],
    "clustering": [clustering],
    "betweenness": [betweenness, lambda net: betweenness(net, use_weights=True)],
    "assortativity": [assortativity],
    "assortativity_undirected": [assortativity_undirected],
    "knn": [knn],
    "knn_curve": [lambda net: knn_curve(net, knn(net)[0])],
    "avg_shortest_path": [lambda net: avg_shortest_path(net, DIRECTED_SCOPE),
                          lambda net: avg_shortest_path(net, PROJECTION_SCOPE)],
    "compute_node_metrics": [compute_node_metrics, lambda net: compute_node_metrics(net, betweenness_weighted=True)],
    "compute_network_metrics": [compute_network_metrics],
}


def test_the_direction_rule_covers_every_public_function():
    public = {name for name, value in vars(metrics).items()
              if inspect.isfunction(value) and value.__module__ == metrics.__name__ and not name.startswith("_")}
    assert set(DIRECTION_CALLS) == public


@given(net=undirected_networks())
@settings(max_examples=60, deadline=None)
def test_an_undirected_network_reads_as_its_symmetric_directed_form(net):
    symmetric = as_symmetric_directed(net)
    for name, calls in DIRECTION_CALLS.items():
        for call in calls:
            assert call(net) == call(symmetric), name


def test_an_undirected_edge_counts_in_both_directions():
    net = net_of({("A", "B"): 3}, directed=False, extra_nodes=("C",))
    assert degrees(net)["A"] == (2, 1, 1, 0)
    assert strengths(net)["B"] == (6, 3, 3)
    summary = compute_network_metrics(net)
    assert (summary.edge_count, summary.total_weight, summary.reciprocity) == (2, 6, 1.0)
