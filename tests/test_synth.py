import io
import random

import numpy as np
import pytest

from oracles import networkx_generate_network
from wardflow.eventlog import parse_event_log, reconstruct_journeys
from wardflow.metrics import clustering
from wardflow.network import build_network, undirected_projection
from wardflow.powerlaw import analyze_tail
from wardflow.synth import (
    CONFIGURATION,
    PREFERENTIAL_ATTACHMENT,
    RING_REWIRE,
    UNIFORM_RANDOM,
    ModelSpec,
    generate_event_log,
    generate_network,
    geometric_stop_lengths,
    write_event_log_csv,
)


def _degree_sequence(seed: int) -> tuple[int, ...]:
    """Up to 12 degrees of up to 6 with an even sum: loops and repeated pairs are common."""
    rng = random.Random(seed)
    degrees = [rng.randint(0, 6) for _ in range(rng.randint(1, 12))]
    degrees[0] += sum(degrees) % 2
    return tuple(degrees)


# every family at boundary parameters (m = n - 1, k = n - 1, p = 0 and 1,
# a single node) and at a few sizes and seeds; 319 specs in all
ORACLE_GRID = {
    PREFERENTIAL_ATTACHMENT: [ModelSpec(PREFERENTIAL_ATTACHMENT, n=n, m=m, seed=seed)
                              for n in (2, 3, 5, 8, 13, 40, 200) for m in sorted({1, 2, 3, n - 1}) if m < n
                              for seed in (0, 1, 7)]
                             + [ModelSpec(PREFERENTIAL_ATTACHMENT, n=2000, m=2, seed=101)],
    RING_REWIRE: [ModelSpec(RING_REWIRE, n=n, k=k, p=p, seed=seed)
                  for n in (3, 4, 7, 12, 30) for k in range(2, min(n, 11), 2)
                  for p in (0.0, 0.2, 0.7, 1.0) for seed in (0, 3)],
    UNIFORM_RANDOM: [ModelSpec(UNIFORM_RANDOM, n=n, p=p, seed=seed)
                     for n in (1, 2, 5, 17, 60) for p in (0.0, 0.05, 0.3, 0.8, 1.0) for seed in (0, 5)],
    CONFIGURATION: [ModelSpec(CONFIGURATION, n=len(degrees), degrees=degrees, seed=seed)
                    for seed in range(79) for degrees in [_degree_sequence(seed)]],
}


@pytest.mark.parametrize("family", sorted(ORACLE_GRID))
def test_generators_replay_networkx(family):
    for spec in ORACLE_GRID[family]:
        net, expected = generate_network(spec), networkx_generate_network(spec)
        assert net.nodes == expected.nodes, spec
        assert list(net.edges.items()) == list(expected.edges.items()), spec


def test_configuration_grid_collapses_loops_and_repeated_pairs():
    # a shuffle that pairs stubs into a loop or a repeated pair leaves fewer than half the stubs as edges
    collapsed = [spec for spec in ORACLE_GRID[CONFIGURATION]
                 if generate_network(spec).edge_count < sum(spec.degrees) // 2]
    assert len(collapsed) >= 20


def test_spec_validation_messages():
    with pytest.raises(ValueError, match="m < n"):
        ModelSpec("preferential-attachment", n=5, m=5)
    with pytest.raises(ValueError, match="even k"):
        ModelSpec("ring-rewire", n=10, k=3, p=0.1)
    with pytest.raises(ValueError, match="p in"):
        ModelSpec("uniform-random", n=10, p=1.5)
    with pytest.raises(ValueError, match="one degree per node"):
        ModelSpec("configuration", n=4, degrees=(2, 2))
    with pytest.raises(ValueError, match="even number"):
        ModelSpec("configuration", n=3, degrees=(1, 1, 1))
    with pytest.raises(ValueError, match="family"):
        ModelSpec("smallville", n=3)


def test_ring_lattice_clustering_matches_analytic_value():
    k = 6
    net = generate_network(ModelSpec("ring-rewire", n=100, k=k, p=0.0, seed=1))
    _, c_av, _ = clustering(net)
    assert c_av == pytest.approx(3 * (k - 2) / (4 * (k - 1)))


def test_uniform_random_full_density_is_complete():
    n = 8
    net = generate_network(ModelSpec("uniform-random", n=n, p=1.0, seed=0))
    assert net.edge_count == n * (n - 1) // 2


def test_generators_deterministic_per_seed():
    spec = ModelSpec("preferential-attachment", n=50, m=2, seed=9)
    assert generate_network(spec) == generate_network(spec)
    other = ModelSpec("preferential-attachment", n=50, m=2, seed=10)
    assert generate_network(spec) != generate_network(other)


def test_configuration_model_collapses_to_simple_graph():
    net = generate_network(ModelSpec("configuration", n=6, degrees=(3, 3, 2, 2, 1, 1), seed=4))
    assert not net.directed
    assert all(w == 1 for w in net.edges.values())


def test_preferential_attachment_tail_is_plausible_power_law():
    net = generate_network(ModelSpec("preferential-attachment", n=2000, m=2, seed=12))
    degree = {node: 0 for node in net.nodes}
    for u, v in net.edges:
        degree[u] += 1
        degree[v] += 1
    fit = analyze_tail(list(degree.values()), n_boot=100, seed=3)
    assert 2.0 < fit.gamma < 4.5
    assert fit.p_value > 0.05


def test_walk_on_two_node_network_alternates():
    net = generate_network(ModelSpec("uniform-random", n=2, p=1.0, seed=0))
    journeys, stats = generate_event_log(net, 20, lambda rng: 3, seed=5)
    assert stats.truncated_journeys == 0
    labels = sorted(net.nodes)
    for journey in journeys:
        assert len(journey.stops) == 3
        assert journey.stops in (
            (labels[0], labels[1], labels[0]),
            (labels[1], labels[0], labels[1]),
        )


def test_empty_log_for_zero_journeys():
    net = generate_network(ModelSpec("uniform-random", n=5, p=0.9, seed=1))
    journeys, stats = generate_event_log(net, 0, seed=1)
    assert journeys == []
    assert stats.truncated_journeys == 0


def test_event_log_generation_deterministic():
    net = generate_network(ModelSpec("ring-rewire", n=30, k=4, p=0.2, seed=3))
    a, _ = generate_event_log(net, 50, seed=11)
    b, _ = generate_event_log(net, 50, seed=11)
    assert a == b


def test_walk_truncates_at_dead_ends():
    from wardflow.network import TransferNetwork

    net = TransferNetwork(frozenset({"a", "b"}), {("a", "b"): 1}, directed=True)
    journeys, stats = generate_event_log(net, 10, lambda rng: 5, seed=2)
    assert stats.truncated_journeys == 10
    assert all(journey.stops == ("a", "b") for journey in journeys)


def test_geometric_length_sampler_bounds_and_mean():
    sampler = geometric_stop_lengths(mean=14.0, minimum=2)
    rng = np.random.default_rng(0)
    draws = [sampler(rng) for _ in range(20000)]
    assert min(draws) >= 2
    assert np.mean(draws) == pytest.approx(14.0, rel=0.05)
    with pytest.raises(ValueError):
        geometric_stop_lengths(mean=1.0, minimum=2)


@pytest.mark.parametrize("mean", [float("nan"), float("inf")])
def test_geometric_length_sampler_rejects_a_non_finite_mean(mean):
    with pytest.raises(ValueError, match=f"mean must be a finite number above minimum - 1, got {mean}"):
        geometric_stop_lengths(mean=mean)


def test_csv_emission_reingests_cleanly():
    net = generate_network(ModelSpec("uniform-random", n=10, p=0.5, seed=6))
    journeys, _ = generate_event_log(net, 40, seed=3)
    buffer = io.StringIO()
    write_event_log_csv(journeys, buffer)
    events, stats = parse_event_log(io.StringIO(buffer.getvalue()))
    assert stats.rows_rejected == 0
    assert reconstruct_journeys(events) == journeys


def test_long_run_edge_frequencies_match_stationary_flow():
    # on an undirected network the walk's stationary edge usage is
    # proportional to edge weight; verify with a power-iteration oracle
    net = generate_network(ModelSpec("uniform-random", n=12, p=0.5, seed=8))
    journeys, _ = generate_event_log(net, 50_000, geometric_stop_lengths(8), seed=21)
    rebuilt = build_network(journeys)

    labels = sorted(net.nodes)
    index = {label: i for i, label in enumerate(labels)}
    weights = np.zeros((len(labels), len(labels)))
    for (u, v), w in net.edges.items():
        weights[index[u], index[v]] = w
        weights[index[v], index[u]] = w
    transition = weights / weights.sum(axis=1, keepdims=True)
    pi = np.full(len(labels), 1 / len(labels))
    for _ in range(500):
        pi = pi @ transition
    stationary_edges = pi[:, None] * transition
    stationary_edges /= stationary_edges.sum()

    observed = np.zeros_like(stationary_edges)
    for (u, v), w in rebuilt.edges.items():
        observed[index[u], index[v]] = w
    observed /= observed.sum()
    mask = stationary_edges > 0
    assert np.all(np.abs(observed[mask] - stationary_edges[mask]) / stationary_edges[mask] < 0.05)


def test_round_trip_edge_coverage_on_strongly_connected_network():
    net = generate_network(ModelSpec("ring-rewire", n=10, k=4, p=0.1, seed=5))
    journeys, _ = generate_event_log(net, 100 * net.edge_count, seed=9)
    rebuilt = build_network(journeys)
    assert set(undirected_projection(rebuilt).edges) == set(net.edges)
