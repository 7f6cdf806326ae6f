"""The benchmark's traced run wraps wardflow functions by name; those names must still exist."""
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from wardflow import cli

TRACED_PY = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def test_every_traced_function_resolves_on_its_module():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED_PY)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    missing = [
        f"{layer}.{name}"
        for layer, functions in traced.TRACED.items()
        for name in functions
        if not callable(getattr(importlib.import_module(f"wardflow.{layer}"), name, None))
    ]
    assert traced.TRACED and not missing


INGEST_STEPS = ("parse_event_log", "reconstruct_journeys", "read_category_map", "apply_category_map")


def test_log_ingest_goes_through_each_traced_step_once(tmp_path, monkeypatch):
    """The per-layer ingest metrics come from these calls; a bypass would read 0."""
    rows = [f"a{i % 9},ward{i % 6},2016-03-01T08:{i % 60:02d}" for i in range(120)]
    log = tmp_path / "log.csv"
    log.write_text("admission_id,location,timestamp\n" + "\n".join(rows[:60]) + "\n\n" + "\n".join(rows[60:]) + "\n")
    categories = tmp_path / "map.csv"
    categories.write_text("location,category\nward0,medical\nward1,medical\nward2,surgical\n")
    results = {name: [] for name in INGEST_STEPS}
    events = []
    for name in INGEST_STEPS:
        def spy(*args, _name=name, _original=getattr(cli, name), **kwargs):
            result = _original(*args, **kwargs)
            if _name == "parse_event_log":  # counted now: reconstruct_journeys empties the groups
                events.append(sum(len(locations) for locations, _ in result[0].values()))
            results[_name].append(result)
            return result

        monkeypatch.setattr(cli, name, spy)
    args = cli._build_parser().parse_args(["build", str(log), "--categories", str(categories)])
    net, stats = cli._network_from_log(args.log, args)
    assert {name: len(calls) for name, calls in results.items()} == dict.fromkeys(INGEST_STEPS, 1)
    groups, parsed = results["parse_event_log"][0]
    assert parsed is stats and stats.rows_read == len(rows) and events == [len(rows)]
    assert groups == {}
    assert net.nodes == {"medical", "surgical", "ward3", "ward4", "ward5"}


def test_traced_analyze_records_every_layer_in_a_fresh_process(tmp_path):
    """The tracer wraps only the modules loaded by `import wardflow.cli`; every layer must be among them."""
    rows = [f"a{i},ward{(i * j) % 7},2016-03-01T{8 + j:02d}:00" for i in range(20) for j in range(4)]
    (tmp_path / "log.csv").write_text("admission_id,location,timestamp\n" + "\n".join(rows) + "\n")
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, str(TRACED_PY), "spans.json", "report.json", "--", "analyze", "log.csv",
                    "--from-log", "--boot", "5", "--sw-samples", "1", "--sw-lattice-swaps", "200"],
                   cwd=tmp_path, env=env, check=True, capture_output=True, timeout=300)
    names = {span["name"] for span in json.loads((tmp_path / "spans.json").read_text())["spans"]}
    assert {"eventlog.parse_event_log", "network.build_network", "report.build_report",
            "metrics.compute_node_metrics", "metrics.knn", "powerlaw.analyze_tail",
            "smallworld.small_world_report", "classify.classify_hubs_bottlenecks", "resilience.attack"} <= names
