import hashlib

import numpy as np
import pytest

from wardflow import pool, smallworld
from wardflow.metrics import clustering
from wardflow.network import TransferNetwork, undirected_projection
from wardflow.smallworld import latticize, rewire_random, small_world_report
from wardflow.synth import ModelSpec, generate_network


def net_of(edges, extra_nodes=()):
    canonical = {}
    for (u, v), w in edges.items():
        canonical[(u, v) if u <= v else (v, u)] = w
    nodes = {u for u, _ in canonical} | {v for _, v in canonical} | set(extra_nodes)
    return TransferNetwork(frozenset(nodes), canonical, directed=False)


def degree_sequence(net):
    degree = {node: 0 for node in net.nodes}
    for u, v in net.edges:
        degree[u] += 1
        degree[v] += 1
    return sorted(degree.values())


def test_rewire_preserves_degree_sequence():
    net = generate_network(ModelSpec("uniform-random", n=30, seed=4, p=0.15))
    result = rewire_random(net, seed=11)
    assert degree_sequence(result.network) == degree_sequence(net)
    assert result.network.nodes == net.nodes


def test_rewire_star_returns_unchanged_with_warning():
    star = net_of({("H", f"L{i}"): 1 for i in range(6)})
    result = rewire_random(star, n_swaps=500, seed=3)
    assert result.network == star
    assert result.no_swap_possible


def test_rewire_actually_changes_cycle_with_chord():
    # a 4-cycle plus chord is degree-rigid (the two degree-3 nodes must link
    # to every other node), so a 6-cycle plus chord is the smallest honest fixture
    ring = {(f"n{i}", f"n{(i + 1) % 6}"): 1 for i in range(6)}
    ring[("n0", "n3")] = 1
    base = net_of(ring)
    changed = 0
    for seed in range(100):
        result = rewire_random(base, n_swaps=10_000, seed=seed)
        if result.network.edges != base.edges:
            changed += 1
    assert changed >= 90


def test_rewire_is_deterministic():
    net = generate_network(ModelSpec("uniform-random", n=25, seed=8, p=0.2))
    a = rewire_random(net, seed=21)
    b = rewire_random(net, seed=21)
    assert a.network == b.network
    assert a.accepted == b.accepted


def test_rewire_requires_undirected():
    directed = TransferNetwork(frozenset({"A", "B"}), {("A", "B"): 1}, directed=True)
    with pytest.raises(ValueError):
        rewire_random(directed)


def test_latticize_preserves_degree_sequence():
    net = generate_network(ModelSpec("uniform-random", n=30, seed=5, p=0.15))
    result = latticize(net, seed=9)
    assert degree_sequence(result.network) == degree_sequence(net)


def test_latticize_two_node_network_unchanged():
    net = net_of({("A", "B"): 1})
    result = latticize(net, seed=1)
    assert result.network == net
    assert result.no_swap_possible


def test_latticize_keeps_ring_clustering_above_random():
    ring = generate_network(ModelSpec("ring-rewire", n=60, k=6, p=0.0, seed=2))
    lattice = latticize(ring, seed=13)
    random = rewire_random(ring, seed=13)
    _, c_lat, _ = clustering(lattice.network)
    _, c_rand, _ = clustering(random.network)
    assert c_lat >= c_rand


def test_small_world_report_components_and_identities():
    net = generate_network(ModelSpec("ring-rewire", n=60, k=6, p=0.05, seed=7))
    report = small_world_report(net, n_samples=5, seed=42)
    assert report.n_samples == 5
    assert report.seed == 42
    assert len(report.accepted_swaps_random) == 5
    assert len(report.accepted_swaps_lattice) == 5
    # stored coefficients must be pure arithmetic of the stored components
    sigma = (report.clustering / report.clustering_random) / (report.path_length / report.path_length_random)
    omega = report.path_length_random / report.path_length - report.clustering / report.clustering_lattice
    assert abs(report.sigma - sigma) < 1e-12
    assert abs(report.omega - omega) < 1e-12


def test_small_world_report_deterministic():
    net = generate_network(ModelSpec("ring-rewire", n=40, k=4, p=0.1, seed=3))
    a = small_world_report(net, n_samples=4, seed=5)
    b = small_world_report(net, n_samples=4, seed=5)
    assert a == b


def test_small_world_report_rejects_directed_input():
    directed = TransferNetwork(frozenset({"A", "B"}), {("A", "B"): 1}, directed=True)
    with pytest.raises(ValueError):
        small_world_report(directed)
    small_world_report(undirected_projection(directed), n_samples=1, seed=0)


def test_small_world_report_absent_reasons_for_degenerate_input():
    # two disconnected dyads: every reference is identical, C values are 0
    net = net_of({("A", "B"): 1, ("C", "D"): 1})
    report = small_world_report(net, n_samples=2, seed=0)
    assert report.sigma is None
    assert "sigma" in report.reasons
    assert report.omega is None


def test_ensemble_growth_is_stable():
    net = generate_network(ModelSpec("ring-rewire", n=60, k=6, p=0.1, seed=19))
    small = small_world_report(net, n_samples=10, seed=3)
    large = small_world_report(net, n_samples=50, seed=3)
    assert abs(small.sigma - large.sigma) < 0.5
    assert abs(small.omega - large.omega) < 0.15


def test_negative_swap_counts_are_rejected():
    net = generate_network(ModelSpec("ring-rewire", n=20, k=4, p=0.1, seed=1))
    with pytest.raises(ValueError, match="n_swaps must be >= 0"):
        rewire_random(net, n_swaps=-1)
    with pytest.raises(ValueError, match="n_swaps must be >= 0"):
        latticize(net, n_swaps=-5)
    with pytest.raises(ValueError, match="n_swaps must be >= 0"):
        small_world_report(net, n_samples=1, n_swaps=-1)
    with pytest.raises(ValueError, match="lattice_swaps must be >= 0"):
        small_world_report(net, n_samples=1, lattice_swaps=-5)
    # zero proposals stay legal and leave the input as it is
    unchanged = latticize(net, n_swaps=0)
    assert (unchanged.network, unchanged.attempted, unchanged.accepted) == (net, 0, 0)


# (accepted, sha256 of the sorted edge items) recorded with the earlier
# numpy-indexed swap kernel; the proposal stream and its outcome must not move
GOLDEN_NET = ModelSpec("preferential-attachment", n=80, m=2, seed=7)
GOLDEN_RANDOM = {
    0: (1226, "adbaf07d9e6242c14314b8fa1ba9baede41b2b727b20b5bdfe49f1d083f77963"),
    1: (1227, "84521f4954559c851d1b36c07fa16365101523ffd231a4ab585bb82a99b862c2"),
    2: (1212, "eb03befb41c3c515c81b18403ef895714b298c3b407cc63fe1f83546ec9cf4fb"),
}
GOLDEN_LATTICE = {
    0: (898, "113c35ef441d59634b0c1b3513f5e1eff623fd28b986230d25badd4e50c81820"),
    1: (865, "4dab9b95559947515258c980dbdbc4590e96b5ceb4df059ce27f02a66b604e70"),
    2: (941, "3e90df18dd32fe10490e3e485fc301013f82532ff2c594124abc0ae419f46e0d"),
}


def edge_digest(net):
    return hashlib.sha256(repr(sorted(net.edges.items())).encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN_RANDOM))
def test_swap_kernels_match_recorded_outcomes(seed):
    net = generate_network(GOLDEN_NET)
    random = rewire_random(net, seed=seed)
    lattice = latticize(net, seed=seed)
    assert (random.accepted, edge_digest(random.network)) == GOLDEN_RANDOM[seed]
    assert (lattice.accepted, edge_digest(lattice.network)) == GOLDEN_LATTICE[seed]


def test_swap_kernels_match_recorded_outcomes_across_rng_blocks():
    # more proposals than one random block, so the block and chunk seams are crossed
    net = generate_network(GOLDEN_NET)
    n_swaps = smallworld._RNG_BLOCK + 5000
    random = rewire_random(net, n_swaps=n_swaps, seed=3)
    lattice = latticize(net, n_swaps=n_swaps, seed=3)
    assert (random.accepted, edge_digest(random.network)) == (
        834231, "726951c195ae2ac0cbca7c8ee467bcd41f8c92e5c1c4f19b5342724a83c1228b")
    assert (lattice.accepted, edge_digest(lattice.network)) == (
        1261, "ebf69b11db9cb2e1a7bbc10a9ec6283138c95404740b252121b31be9b98e41a6")


def test_small_world_report_same_with_worker_pool(monkeypatch):
    net = generate_network(ModelSpec("ring-rewire", n=40, k=4, p=0.1, seed=3))
    monkeypatch.setattr(pool, "_worker_count", lambda tasks: 1)
    serial = small_world_report(net, n_samples=3, seed=5)
    monkeypatch.setattr(pool, "_worker_count", lambda tasks: 2)
    pooled = small_world_report(net, n_samples=3, seed=5)
    assert pooled == serial
