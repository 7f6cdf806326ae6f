"""The benchmark's traced run wraps wardflow functions by name; those names must still exist."""
import importlib
import importlib.util
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
    for name in INGEST_STEPS:
        def spy(*args, _name=name, _original=getattr(cli, name), **kwargs):
            result = _original(*args, **kwargs)
            results[_name].append(result)
            return result

        monkeypatch.setattr(cli, name, spy)
    args = cli._build_parser().parse_args(["build", str(log), "--categories", str(categories)])
    net, stats = cli._network_from_log(args.log, args)
    assert {name: len(calls) for name, calls in results.items()} == dict.fromkeys(INGEST_STEPS, 1)
    events, parsed = results["parse_event_log"][0]
    assert parsed is stats and stats.rows_read == len(rows) == len(events)
    assert net.nodes == {"medical", "surgical", "ward3", "ward4", "ward5"}
