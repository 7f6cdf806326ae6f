"""The network's indexed core: golden metric values and one core per analysed network."""
import dataclasses
import io
import json
from pathlib import Path

from wardflow import metrics, pool, report, smallworld
from wardflow.eventlog import parse_event_log, reconstruct_journeys
from wardflow.network import (
    as_symmetric_directed,
    build_network,
    export_network,
    import_network,
    undirected_projection,
)
from wardflow.paths import GraphCore
from wardflow.synth import ModelSpec, generate_event_log, generate_network, geometric_stop_lengths, write_event_log_csv

# exact values recorded before the metrics moved onto the shared core
GOLDEN = Path(__file__).with_name("golden_metrics.json")


def _log_network(spec: ModelSpec, journeys: int, seed: int, extra_rows: str = ""):
    walks, _ = generate_event_log(generate_network(spec), journeys, geometric_stop_lengths(5.0), seed=seed)
    buffer = io.StringIO()
    write_event_log_csv(walks, buffer)
    events, _ = parse_event_log(io.StringIO(buffer.getvalue() + extra_rows))
    return build_network(reconstruct_journeys(events))


def log_built_network():
    """Directed, parsed from a log: edges in first-seen order, and one single-stop admission (an isolated node)."""
    return _log_network(ModelSpec("preferential-attachment", n=30, seed=3, m=2), 150, 3,
                        "zz-single,lone,2015-01-01T00:00:00\n")


def undirected_edge_list_network():
    """Undirected, read from an edge list with one isolated node."""
    source = _log_network(ModelSpec("ring-rewire", n=30, seed=5, k=4, p=0.2), 150, 5)
    data = export_network(undirected_projection(source), "edgelist") + b"lone,,0\n"
    return import_network(data, "edgelist", directed=False)


def _plain(value):
    """JSON round trip: floats keep every bit, tuples become lists, int keys strings."""
    return json.loads(json.dumps(value))


def golden_values() -> dict:
    values = {}
    for name, net in (("log_built", log_built_network()), ("undirected_edge_list", undirected_edge_list_network())):
        directed = as_symmetric_directed(net)
        entry = {
            "node_metrics": [dataclasses.asdict(m) for _, m in sorted(metrics.compute_node_metrics(directed).items())],
            "network_metrics": dataclasses.asdict(metrics.compute_network_metrics(directed)),
        }
        if not net.directed:
            # the undirected network itself, as the small-world section passes it
            entry["projection"] = {
                "clustering": metrics.clustering(net),
                "knn": metrics.knn(net),
                "avg_shortest_path": metrics.avg_shortest_path(net, metrics.PROJECTION_SCOPE),
                "assortativity_undirected": metrics.assortativity_undirected(net),
            }
        values[name] = entry
    return _plain(values)


def test_log_built_network_edges_are_not_in_sorted_order():
    net = log_built_network()
    assert list(net.edges) != sorted(net.edges)
    assert "lone" in net.nodes and not any("lone" in edge for edge in net.edges)


def test_metrics_match_the_recorded_golden_values():
    assert golden_values() == json.loads(GOLDEN.read_text())


def _count_core_builds(monkeypatch) -> list:
    """Patch core construction to record the network each core is built for."""
    built = []
    original = GraphCore.from_network.__func__

    def spy(cls, net, **kwargs):
        built.append(net)
        return original(cls, net, **kwargs)

    monkeypatch.setattr(GraphCore, "from_network", classmethod(spy))
    return built


def test_one_core_per_analysed_network(monkeypatch):
    net = log_built_network()
    built = _count_core_builds(monkeypatch)
    report.build_report(net, boot=10, skip=("small_world",))
    assert len(built) == 1 and built[0] is net


def test_at_most_one_core_per_small_world_member(monkeypatch):
    net = undirected_edge_list_network()
    assert net.core is net.core
    built = _count_core_builds(monkeypatch)
    tasks = [(tag, i) for i in range(3) for tag in (smallworld._RANDOM_TAG, smallworld._LATTICE_TAG)]
    for task in tasks:
        before = len(built)
        smallworld._ensemble_member(net, 7, 200, 2000, task)
        assert len(built) - before <= 1
    assert all(member is not net for member in built)


def test_default_report_indexes_the_projection_once(monkeypatch):
    net = log_built_network()
    # members run in this process, where the spy sees them
    monkeypatch.setattr(pool, "_worker_count", lambda tasks: 1)
    built = _count_core_builds(monkeypatch)
    samples = 2
    out = report.build_report(net, boot=10, sw_samples=samples, sw_swaps=50, sw_lattice_swaps=200)
    assert out["small_world"] is not None
    assert built[0] is net and sum(member is net for member in built) == 1
    # the rest are rewired ensemble members, at most one core each; the
    # small-world section reads the input's own projection
    assert len(built) - 1 <= 2 * samples
    assert all(not member.directed for member in built[1:])


def test_undirected_projection_shares_the_projected_core():
    net = log_built_network()
    projected = undirected_projection(net)
    assert projected.core is net.core.projection
    fresh = GraphCore.from_network(projected)
    assert fresh.labels == projected.core.labels
    for name in ("weighted", "out", "inc"):
        ours, theirs = getattr(projected.core, name), getattr(fresh, name)
        assert (ours.indptr == theirs.indptr).all() and (ours.indices == theirs.indices).all()
        assert (ours.data == theirs.data).all() and ours.data.dtype == theirs.data.dtype


def test_knn_runs_once_per_report(monkeypatch):
    net = log_built_network()
    calls = []
    original = metrics.knn

    def counting(network):
        calls.append(network)
        return original(network)

    monkeypatch.setattr(metrics, "knn", counting)
    out = report.build_report(net, boot=10, skip=("small_world",))
    assert len(calls) == 1
    assert out["fits"]["knn_degree"] is not None and out["node_metrics"]
