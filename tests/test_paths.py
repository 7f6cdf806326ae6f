"""The batched BFS engine against brute-force and dense references."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

from oracles import brute_betweenness
from wardflow import paths, pool
from wardflow.metrics import DIRECTED_SCOPE, PROJECTION_SCOPE, avg_shortest_path, betweenness
from wardflow.network import TransferNetwork
from wardflow.resilience import attack
from wardflow.synth import ModelSpec, generate_network

# cells per batch: one source per batch, a few, and all at once; and a
# dense ratio of 0 (edge by edge) or huge (block products at every level)
ENGINE_SETTINGS = st.tuples(st.sampled_from([1, 24, 64, 1 << 21]), st.sampled_from([0, 1e12]))


@st.composite
def digraphs(draw, max_nodes=8):
    """Random digraphs; isolated nodes and several components come up often."""
    n = draw(st.integers(1, max_nodes))
    labels = [f"v{i}" for i in range(n)]
    pairs = [(u, v) for u in labels for v in labels if u != v]
    chosen = set(draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n))) if pairs else set()
    if draw(st.booleans()):  # symmetric-directed: every edge reciprocated
        chosen |= {(v, u) for u, v in chosen}
    return TransferNetwork(frozenset(labels), {edge: draw(st.integers(1, 4)) for edge in sorted(chosen)})


def _engine(monkeypatch, cells, ratio):
    monkeypatch.setattr(paths, "BATCH_CELLS", cells)
    monkeypatch.setattr(paths, "DENSE_RATIO", ratio)


def _dense_adjacency(net, directed):
    """Weighted adjacency for the dense all-pairs references below."""
    index = {node: i for i, node in enumerate(net.sorted_nodes())}
    rows, cols, vals = [], [], []
    for (u, v), weight in net.edges.items():
        rows.append(index[u])
        cols.append(index[v])
        vals.append(weight)
        if not directed:
            rows.append(index[v])
            cols.append(index[u])
            vals.append(weight)
    return csr_matrix((vals, (rows, cols)), shape=(len(index), len(index)))


def dense_avg_shortest_path(net, directed):
    """Giant-component mean hop count from the dense all-pairs distance matrix."""
    matrix = _dense_adjacency(net, directed)
    _, labels = connected_components(matrix, directed=directed, connection="strong" if directed else "weak")
    members = np.flatnonzero(labels == int(np.bincount(labels).argmax()))
    coverage = len(members) / net.node_count
    if len(members) < 2:
        return None, coverage
    dist = shortest_path(matrix[members][:, members], directed=directed, unweighted=True)
    return float(dist[~np.eye(len(members), dtype=bool)].mean()), coverage


def dense_efficiency(net, removed):
    """Mean inverse hop distance over ordered pairs of the surviving nodes."""
    labels = net.sorted_nodes()
    members = np.array([i for i, label in enumerate(labels) if label not in removed], dtype=int)
    if len(members) < 2:
        return 0.0
    matrix = _dense_adjacency(net, directed=True)
    dist = shortest_path(matrix[members][:, members], directed=True, unweighted=True)
    finite = np.isfinite(dist) & ~np.eye(len(members), dtype=bool)
    return float((1.0 / dist[finite]).sum()) / (len(members) * (len(members) - 1))


@settings(max_examples=80, deadline=None)
@given(digraphs(), ENGINE_SETTINGS)
def test_betweenness_matches_path_enumeration(net, engine):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _engine(monkeypatch, *engine)
        actual = betweenness(net)
    expected = brute_betweenness(net)
    assert actual.keys() == expected.keys()
    for node, value in actual.items():
        assert value == pytest.approx(expected[node], abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(digraphs(max_nodes=12), ENGINE_SETTINGS)
def test_avg_shortest_path_equals_dense_all_pairs(net, engine):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _engine(monkeypatch, *engine)
        directed = avg_shortest_path(net, DIRECTED_SCOPE)
        projection = avg_shortest_path(net, PROJECTION_SCOPE)
    assert directed == dense_avg_shortest_path(net, directed=True)
    assert projection == dense_avg_shortest_path(net, directed=False)


@settings(max_examples=60, deadline=None)
@given(digraphs(max_nodes=12), ENGINE_SETTINGS, st.randoms(use_true_random=False),
       st.sampled_from([0.1, 0.25, 0.5]))
def test_attack_efficiency_matches_dense_reference(net, engine, rng, step):
    if net.node_count < 2:
        return
    order = net.sorted_nodes()
    rng.shuffle(order)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _engine(monkeypatch, *engine)
        result = attack(net, "explicit", order=order, step_fraction=step)
    per_step = max(1, round(step * net.node_count))
    for k, measured in enumerate(result.steps):
        expected = dense_efficiency(net, set(order[:k * per_step]))
        assert measured.efficiency == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_distance_counts_of_a_path_across_batch_seams(monkeypatch):
    net = TransferNetwork(frozenset("abcde"), {("a", "b"): 1, ("b", "c"): 1, ("c", "d"): 1, ("d", "e"): 1})
    expected = [0, 4, 3, 2, 1]
    for cells in (1, 10, 1 << 21):
        monkeypatch.setattr(paths, "BATCH_CELLS", cells)
        assert paths.distance_counts(paths.GraphCore.from_network(net)) == expected


def _ring(n):
    labels = [f"r{i:04d}" for i in range(n)]
    edges = {}
    for i in range(n):
        u, v = labels[i], labels[(i + 1) % n]
        edges[(u, v)] = edges[(v, u)] = 1
    return TransferNetwork(frozenset(labels), edges)


def _peak_bytes(run):
    tracemalloc.start()
    try:
        value = run()
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_unweighted_paths_stay_below_a_quarter_of_a_dense_matrix():
    n = 3000
    net = _ring(n)
    bound = n * n * 8 / 4  # a float64 n x n distance matrix is 72 MB
    for scope in (DIRECTED_SCOPE, PROJECTION_SCOPE):
        (mean, coverage), peak = _peak_bytes(lambda: avg_shortest_path(net, scope))
        assert (mean, coverage) == (n * n / (4 * (n - 1)), 1.0)
        assert peak < bound
    result, peak = _peak_bytes(lambda: attack(net, "random", seed=1, step_fraction=1.0))
    assert result.steps[0].efficiency > 0.0
    assert peak < bound


def test_betweenness_bits_do_not_depend_on_the_worker_count(monkeypatch):
    core = generate_network(ModelSpec("preferential-attachment", n=300, m=2, seed=4)).core
    wide = paths.betweenness(core)
    monkeypatch.setattr(paths, "BATCH_CELLS", 1 << 16)  # batches of 2 sources, in 16 groups
    results = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(pool, "_worker_count", lambda tasks, workers=workers: min(workers, tasks))
        results.append(paths.betweenness(core))
    assert all(result.tobytes() == results[0].tobytes() for result in results)
    np.testing.assert_allclose(results[0], wide, rtol=1e-12, atol=1e-15)


def test_serial_betweenness_of_2000_nodes_stays_below_16_mb(monkeypatch):
    core = generate_network(ModelSpec("preferential-attachment", n=2000, m=2, seed=1)).core
    monkeypatch.setattr(pool, "_worker_count", lambda tasks: 1)
    scores, peak = _peak_bytes(lambda: paths.betweenness(core))
    assert scores.shape == (2000,) and scores.max() > 0
    assert peak < 16 * 2**20
