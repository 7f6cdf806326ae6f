import pytest

from wardflow.classify import (
    BALANCED,
    DISTRIBUTOR,
    HUB_BOTTLENECK,
    HUB_NON_BOTTLENECK,
    NEITHER,
    NON_HUB_BOTTLENECK,
    RECEIVER,
    classify_hubs_bottlenecks,
    label_distributors_receivers,
)
from wardflow.metrics import NodeMetrics


def row(label, degree=1, betweenness=0.0, net_connectivity=0):
    return NodeMetrics(label, degree, 0, 0, net_connectivity, degree, 0, 0, 0.0, betweenness, None)


def test_five_distinct_nodes_top_quantile_selects_only_the_top():
    table = {f"n{i}": row(f"n{i}", degree=i + 1, betweenness=i / 10) for i in range(5)}
    result = classify_hubs_bottlenecks(table, quantile=0.20)
    assert result.quadrants["n4"] == HUB_BOTTLENECK
    assert all(result.quadrants[f"n{i}"] == NEITHER for i in range(4))
    assert result.degree_threshold == 5
    assert result.betweenness_threshold == pytest.approx(0.4)


def test_identical_nodes_all_qualify():
    table = {f"n{i}": row(f"n{i}", degree=3, betweenness=0.5) for i in range(6)}
    result = classify_hubs_bottlenecks(table, quantile=0.20)
    assert all(q == HUB_BOTTLENECK for q in result.quadrants.values())


def test_quadrants_are_exclusive_and_total():
    table = {
        "hub_bn": row("hub_bn", degree=10, betweenness=0.9),
        "hub": row("hub", degree=9, betweenness=0.1),
        "bn": row("bn", degree=1, betweenness=0.8),
        "plain1": row("plain1", degree=2, betweenness=0.2),
        "plain2": row("plain2", degree=3, betweenness=0.3),
    }
    result = classify_hubs_bottlenecks(table, quantile=0.40)
    assert result.quadrants == {
        "hub_bn": HUB_BOTTLENECK,
        "hub": HUB_NON_BOTTLENECK,
        "bn": NON_HUB_BOTTLENECK,
        "plain1": NEITHER,
        "plain2": NEITHER,
    }


def test_raising_quantile_never_removes_hub_status():
    table = {f"n{i}": row(f"n{i}", degree=i, betweenness=i / 20.0) for i in range(12)}
    previous: set[str] = set()
    for q in (0.1, 0.2, 0.35, 0.5, 0.8, 1.0):
        result = classify_hubs_bottlenecks(table, quantile=q)
        hubs = {n for n, quad in result.quadrants.items() if quad in (HUB_BOTTLENECK, HUB_NON_BOTTLENECK)}
        assert previous <= hubs
        previous = hubs


def test_classification_needs_a_node_and_valid_quantile():
    with pytest.raises(ValueError):
        classify_hubs_bottlenecks({})
    with pytest.raises(ValueError):
        classify_hubs_bottlenecks({"a": row("a")}, quantile=0.0)


def test_roles_balanced_network():
    table = {f"n{i}": row(f"n{i}", net_connectivity=0) for i in range(4)}
    result = label_distributors_receivers(table)
    assert all(role == BALANCED for role in result.labels.values())
    assert result.threshold == 0.0


def test_roles_planted_distributor():
    table = {f"n{i}": row(f"n{i}", net_connectivity=1) for i in range(10)}
    table["spreader"] = row("spreader", net_connectivity=-10)
    result = label_distributors_receivers(table, threshold_sd=2.0)
    assert result.labels["spreader"] == DISTRIBUTOR
    assert all(result.labels[f"n{i}"] == BALANCED for i in range(10))


def test_roles_receiver_side():
    table = {f"n{i}": row(f"n{i}", net_connectivity=-1) for i in range(10)}
    table["sink"] = row("sink", net_connectivity=10)
    result = label_distributors_receivers(table, threshold_sd=2.0)
    assert result.labels["sink"] == RECEIVER


def test_roles_need_two_nodes():
    with pytest.raises(ValueError):
        label_distributors_receivers({"a": row("a")})


def test_roles_reject_a_negative_threshold():
    # hub -> a, b, c, d; a, b, c -> sink; d -> e -> f: a negative cut would
    # make every node but the sink a distributor, f (+1) included
    net_connectivity = {"hub": -4, "a": 0, "b": 0, "c": 0, "d": 0, "e": 0, "f": 1, "sink": 3}
    table = {label: row(label, net_connectivity=k) for label, k in net_connectivity.items()}
    with pytest.raises(ValueError, match="threshold_sd must be >= 0, got -1"):
        label_distributors_receivers(table, threshold_sd=-1.0)
    with pytest.raises(ValueError, match="threshold_sd"):
        label_distributors_receivers(table, threshold_sd=float("nan"))
    assert label_distributors_receivers(table, threshold_sd=0.0).labels["f"] == RECEIVER


def test_classification_invariant_to_weight_scaling():
    # degree and unweighted betweenness do not see weights, so scaled
    # inputs are byte-identical here by construction; assert the contract
    table = {f"n{i}": row(f"n{i}", degree=i + 1, betweenness=i / 10, net_connectivity=i - 2) for i in range(5)}
    first = classify_hubs_bottlenecks(table)
    second = classify_hubs_bottlenecks(dict(table))
    assert first == second
