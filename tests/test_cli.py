import dataclasses
import gc
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import wardflow
from wardflow import cli, eventlog
from wardflow.cli import main
from wardflow.network import TransferNetwork, export_network

LOG = """admission_id,location,timestamp
a1,ED,2016-03-01T08:00
a1,ward1,2016-03-01T10:00
a1,CT,2016-03-01T11:00
a1,ward1,2016-03-01T12:00
a2,ED,2016-03-01T09:00
a2,ward2,2016-03-01T13:00
a3,ED,2016-03-02T08:00
a3,ward1,2016-03-02T09:00
"""

CATEGORIES = """location,category
ward1,medical
ward2,medical
"""


@pytest.fixture()
def log_file(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text(LOG)
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_edge_list_with_hand_counted_weights(log_file, tmp_path, capsys):
    out = tmp_path / "net.csv"
    code, _, err = run(capsys, "build", log_file, "--format", "edgelist", "-o", out)
    assert code == 0
    assert "rows read: 8" in err
    lines = out.read_text().splitlines()
    assert lines[0] == "from,to,weight"
    assert set(lines[1:]) == {"CT,ward1,1", "ED,ward1,2", "ED,ward2,1", "ward1,CT,1"}


def test_build_with_categories_merges_wards(log_file, tmp_path, capsys):
    categories = tmp_path / "map.csv"
    categories.write_text(CATEGORIES)
    raw = tmp_path / "raw.csv"
    merged = tmp_path / "merged.csv"
    assert run(capsys, "build", log_file, "--format", "edgelist", "-o", raw)[0] == 0
    assert run(capsys, "build", log_file, "--categories", categories,
               "--format", "edgelist", "-o", merged)[0] == 0
    raw_nodes = {line.split(",")[0] for line in raw.read_text().splitlines()[1:]}
    merged_nodes = {line.split(",")[0] for line in merged.read_text().splitlines()[1:]}
    assert "ward1" in raw_nodes
    assert "ward1" not in merged_nodes
    assert "medical" in merged_nodes


def test_build_empty_log_is_ok(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("admission_id,location,timestamp\n")
    out = tmp_path / "net.csv"
    code, _, _ = run(capsys, "build", path, "--format", "edgelist", "-o", out)
    assert code == 0
    assert out.read_text() == "from,to,weight\n"


def test_build_missing_file_is_input_error(tmp_path, capsys):
    code, _, err = run(capsys, "build", tmp_path / "nope.csv")
    assert code == 2
    assert "input error" in err


def test_build_schema_error_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("id,where,when\n1,ED,2016-01-01\n")
    code, _, err = run(capsys, "build", path)
    assert code == 2


def test_usage_errors_exit_one(capsys):
    assert main(["build"]) == 1
    assert main(["analyze", "x", "--format", "nope"]) == 1
    assert main([]) == 1


def analyze_args(log_file, *extra):
    return ["analyze", str(log_file), "--from-log", "--boot", "10",
            "--sw-samples", "2", "--seed", "3", *extra]


def test_analyze_report_is_deterministic_and_valid(log_file, capsys):
    code, out1, _ = run(capsys, *analyze_args(log_file))
    assert code == 0
    code, out2, _ = run(capsys, *analyze_args(log_file))
    assert code == 0
    assert out1 == out2

    report = json.loads(out1)
    schema = json.loads(resources.files("wardflow").joinpath("report_schema.json").read_text())
    jsonschema.validate(report, schema)
    assert report["tool"]["name"] == "wardflow"
    assert report["config"]["seed"] == 3
    assert report["ingest"]["rows_read"] == 8
    assert len(report["input"]["digest"]) == 64
    labels = [row["label"] for row in report["node_metrics"]]
    assert labels == sorted(labels)


def test_analyze_skip_removes_section(log_file, capsys):
    code, out, _ = run(capsys, *analyze_args(log_file, "--skip", "resilience"))
    assert code == 0
    report = json.loads(out)
    assert "resilience" not in report
    assert "small_world" in report


@pytest.mark.parametrize("flag, name", [("--sw-swaps", "sw_swaps"), ("--sw-lattice-swaps", "sw_lattice_swaps")])
def test_analyze_negative_swap_count_is_usage_error(log_file, capsys, flag, name):
    code, out, err = run(capsys, *analyze_args(log_file, flag, "-1"))
    assert code == 1 and out == ""
    assert f"{name} must be >= 0, got -1" in err


def test_analyze_unknown_skip_is_usage_error(log_file, capsys):
    code, _, err = run(capsys, *analyze_args(log_file, "--skip", "nonsense"))
    assert code == 1


def test_analyze_negative_boot_is_usage_error(log_file, capsys):
    code, out, err = run(capsys, *analyze_args(log_file, "--boot", "-5"))
    assert code == 1 and out == ""
    assert "boot must be >= 0" in err


@pytest.mark.parametrize("command", [["analyze", "{log}", "--from-log"],
                                     ["synth", "--model", "er", "--n", "5", "--p", "0.5", "--journeys", "3"]])
def test_negative_seed_is_usage_error(log_file, capsys, command):
    argv = [token.format(log=log_file) for token in command]
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert code == 1 and out == ""
    assert "seed must be >= 0, got -1" in err


@pytest.mark.parametrize("flag, name, value", [("--quantile", "quantile", "nan"),
                                              ("--role-threshold-sd", "role_threshold_sd", "inf"),
                                              ("--attack-step", "attack_step", "nan")])
def test_analyze_non_finite_float_option_is_usage_error(log_file, capsys, flag, name, value):
    code, out, err = run(capsys, *analyze_args(log_file, flag, value))
    assert code == 1 and out == ""
    assert f"{name} must be a finite number, got {value}" in err


@pytest.mark.parametrize("command", [["build", "{log}"], ["analyze", "{log}", "--from-log"]])
@pytest.mark.parametrize("delimiter", ["", ";;"])
def test_delimiter_of_other_than_one_character_is_usage_error(log_file, capsys, command, delimiter):
    argv = [token.format(log=log_file) for token in command]
    code, out, err = run(capsys, *argv, f"--delimiter={delimiter}")
    assert code == 1 and out == ""
    assert f"argument --delimiter: delimiter must be one character, got {delimiter!r}" in err


def test_analyze_negative_role_threshold_is_usage_error(log_file, capsys):
    code, out, err = run(capsys, *analyze_args(log_file, "--role-threshold-sd", "-1", "--skip", "small_world"))
    assert code == 1 and out == ""
    assert "role_threshold_sd must be >= 0, got -1.0" in err


@pytest.mark.parametrize("flag, value, name", [
    ("--boot", "-1", "boot"), ("--seed", "-1", "seed"), ("--quantile", "nan", "quantile"),
    ("--skip", "nonsense", "skip"), ("--sw-samples", "0", "sw_samples"), ("--sw-swaps", "-1", "sw_swaps"),
    ("--attack-step", "0", "attack_step"), ("--attack-step", "2", "attack_step"), ("--quantile", "0", "quantile"),
    ("--quantile", "1.5", "quantile"), ("--role-threshold-sd", "-1", "role_threshold_sd"),
    ("--attack", "nonsense", "attack_strategies"), ("--attack", "degree,explicit", "attack_strategies"),
])
def test_analyze_option_out_of_range_is_usage_error_before_the_input_is_read(log_file, tmp_path, capsys,
                                                                             flag, value, name):
    for source in (log_file, tmp_path / "missing.csv"):
        code, out, err = run(capsys, *analyze_args(source, f"{flag}={value}"))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {name} ")


def test_analyze_option_boundaries_are_in_range(log_file, capsys):
    bounds = {"boot": 0, "sw_swaps": 0, "quantile": 1.0, "attack_step": 1.0, "role_threshold_sd": 0.0}
    flags = [f"--{name.replace('_', '-')}={value}" for name, value in bounds.items()]
    code, out, _ = run(capsys, *analyze_args(log_file, *flags))
    assert code == 0
    report = json.loads(out)
    options = wardflow.report.AnalysisOptions(seed=3, sw_samples=2, **bounds)
    assert report["config"] == wardflow.report._plain(options)
    assert all(report[name] is not None for name in wardflow.SECTIONS)


def test_config_keys_are_the_option_fields_in_order(log_file, capsys):
    code, out, _ = run(capsys, *analyze_args(log_file, "--skip", "small_world"))
    assert code == 0
    fields = [field.name for field in dataclasses.fields(wardflow.report.AnalysisOptions)]
    assert list(json.loads(out)["config"]) == fields


@pytest.mark.parametrize("name, text, flags", [
    ("edges.csv", "from,to,weight\n", []),
    ("log.csv", "admission_id,location,timestamp\na1,ED,not-a-time\na2,,2016-03-01T08:00\n", ["--from-log"]),
])
def test_analyze_empty_network_reports_no_node_rows(tmp_path, capsys, name, text, flags):
    path = tmp_path / name
    path.write_text(text)
    code, out, _ = run(capsys, "analyze", path, *flags, "--boot", "5", "--sw-samples", "1")
    assert code == 0
    report = json.loads(out)
    schema = json.loads(resources.files("wardflow").joinpath("report_schema.json").read_text())
    jsonschema.validate(report, schema)
    assert report["network_summary"]["nodes"] == 0
    assert report["node_metrics"] == []
    assert report["fits"]["degree_tail_reason"] == "no samples"
    assert report["classification_reason"] == "need at least 1 node"
    assert "division" not in out


def test_analyze_boot_zero_skips_the_bootstrap(log_file, capsys):
    code, out, _ = run(capsys, *analyze_args(log_file, "--boot", "0", "--skip", "small_world"))
    assert code == 0
    tail = json.loads(out)["fits"]["degree_tail"]
    assert tail["n_bootstrap"] == 0 and tail["p_value"] is None and tail["ci_low"] is None


def test_analyze_network_file_round_trip(log_file, tmp_path, capsys):
    net_file = tmp_path / "net.graphml"
    assert run(capsys, "build", log_file, "-o", net_file)[0] == 0
    code, out, _ = run(capsys, "analyze", net_file, "--boot", "5", "--sw-samples", "1", "--seed", "1")
    assert code == 0
    report = json.loads(out)
    assert report["ingest"] is None
    assert report["ingest_reason"]
    assert report["network_summary"]["nodes"] == 4


def test_analyze_sidecars(log_file, tmp_path, capsys):
    sidecars = tmp_path / "curves"
    code, _, _ = run(capsys, *analyze_args(log_file, "--sidecar-dir", sidecars))
    assert code == 0
    names = {p.name for p in sidecars.iterdir()}
    assert {"degree_distribution.csv", "knn_curve.csv", "attack_degree.csv", "attack_random.csv"} <= names
    header = (sidecars / "attack_degree.csv").read_text().splitlines()[0]
    assert header == "fraction_removed,wcc_fraction,scc_fraction,efficiency"


def test_synth_deterministic_and_closes_pipeline(tmp_path, capsys):
    first = tmp_path / "one.csv"
    second = tmp_path / "two.csv"
    argv = ["synth", "--model", "ws", "--n", "40", "--k", "4", "--p", "0.1",
            "--journeys", "200", "--seed", "7"]
    assert run(capsys, *argv, "-o", first)[0] == 0
    assert run(capsys, *argv, "-o", second)[0] == 0
    assert first.read_bytes() == second.read_bytes()

    code, _, err = run(capsys, "build", first, "--format", "edgelist", "-o", tmp_path / "net.csv")
    assert code == 0
    assert "rejected: 0" in err


def test_synth_degree_distribution_matches_generator(tmp_path, capsys):
    from wardflow.metrics import degrees
    from wardflow.network import build_network, undirected_projection
    from wardflow.synth import ModelSpec, generate_network
    import io as _io

    from wardflow.eventlog import parse_event_log, reconstruct_journeys

    log = tmp_path / "log.csv"
    argv = ["synth", "--model", "er", "--n", "12", "--p", "0.6",
            "--journeys", "4000", "--seed", "5", "-o", log]
    assert run(capsys, *argv)[0] == 0
    events, _ = parse_event_log(_io.StringIO(log.read_text()))
    rebuilt = undirected_projection(build_network(reconstruct_journeys(events)))
    generated = generate_network(ModelSpec("uniform-random", n=12, p=0.6, seed=5))
    assert set(rebuilt.edges) == set(generated.edges)


def test_synth_invalid_model_params_exit_two(capsys):
    code, out, err = run(capsys, "synth", "--model", "ws", "--n", "10", "--k", "3",
                         "--p", "0.1", "--journeys", "5")
    assert (code, out) == (2, "")
    assert err == "input error: ring rewiring needs even k with 0 < k < n\n"


def test_synth_negative_journey_count_exit_two(capsys):
    code, out, err = run(capsys, "synth", "--model", "er", "--n", "5", "--p", "0.5", "--journeys", "-1")
    assert code == 2 and out == ""
    assert err == "input error: n_journeys must be >= 0, got -1\n"


def test_synth_degrees_that_are_not_integers_are_a_usage_error(capsys):
    code, out, err = run(capsys, "synth", "--model", "config", "--n", "3", "--degrees", "1,x,1", "--journeys", "5")
    assert code == 1 and out == ""
    assert "argument --degrees: expected comma-separated integers, got '1,x,1'" in err


@pytest.mark.parametrize("journeys", ["0", "5"])
@pytest.mark.parametrize("mean", ["nan", "inf"])
def test_synth_non_finite_mean_stops_exit_two(capsys, mean, journeys):
    code, out, err = run(capsys, "synth", "--model", "er", "--n", "5", "--p", "0.5",
                         "--journeys", journeys, "--mean-stops", mean)
    assert code == 2 and out == ""
    assert err == f"input error: mean must be a finite number above minimum - 1, got {mean}\n"


def test_export_graphml_to_dot(log_file, tmp_path, capsys):
    net_file = tmp_path / "net.graphml"
    assert run(capsys, "build", log_file, "-o", net_file)[0] == 0
    code, out, _ = run(capsys, "export", net_file, "--to", "dot")
    assert code == 0
    assert out.startswith("digraph")


@pytest.mark.parametrize("weight", ["1_0", "\u0663"])
def test_export_of_an_edge_list_weight_other_than_ascii_digits_is_input_error(tmp_path, capsys, weight):
    edges = tmp_path / "edges.csv"
    edges.write_text(f"from,to,weight\na,b,2\nb,c,{weight}\n", encoding="utf-8")
    code, out, err = run(capsys, "export", edges, "--to", "edgelist")
    assert code == 2 and out == ""
    assert f"edge-list row ['b', 'c', {weight!r}]" in err


@pytest.mark.parametrize("kind, weight", [("long", "1_0"), ("double", "1_0"), ("int", " \u0663 ")])
def test_export_of_a_graphml_weight_other_than_an_ascii_number_is_input_error(tmp_path, capsys, kind, weight):
    path = tmp_path / "net.graphml"
    path.write_text(f'<graphml><key id="w" for="edge" attr.name="weight" attr.type="{kind}"/>'
                    f'<graph edgedefault="directed"><edge source="a" target="b"><data key="w">{weight}</data>'
                    f'</edge></graph></graphml>', encoding="utf-8")
    code, out, err = run(capsys, "export", path, "--to", "edgelist")
    assert code == 2 and out == ""
    assert f"weight {weight!r} of edge ('a', 'b')" in err


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    out = capsys.readouterr().out
    assert "wardflow" in out


@pytest.mark.parametrize("argv", [
    ["--model", "ba", "--n", "30", "--m", "2"],
    ["--model", "ws", "--n", "30", "--k", "4", "--p", "0.2"],
    ["--model", "er", "--n", "30", "--p", "0.2"],
    ["--model", "config", "--n", "6", "--degrees", "3,3,2,2,1,1"],
])
def test_pipeline_closure_for_every_model_family(tmp_path, capsys, argv):
    log = tmp_path / "log.csv"
    net = tmp_path / "net.graphml"
    assert run(capsys, "synth", *argv, "--journeys", "100", "--seed", "4", "-o", log)[0] == 0
    assert run(capsys, "build", log, "-o", net)[0] == 0
    code, out, _ = run(capsys, "analyze", net, "--boot", "5", "--sw-samples", "1", "--seed", "2")
    assert code == 0
    report = json.loads(out)
    assert report["network_summary"]["nodes"] > 0


def test_report_format_carries_published_style_values(capsys):
    # the report layout must be able to carry tail fits of the shape seen in
    # published analyses: gamma with a bootstrap CI and a goodness-of-fit p
    from wardflow.powerlaw import PowerLawFit
    from wardflow.report import _plain

    fit = PowerLawFit(gamma=6.18, xmin=14, n_tail=37, ks_stat=0.08,
                      p_value=0.46, ci_low=6.14, ci_high=6.26, n_bootstrap=500, seed=1)
    payload = _plain(fit)
    assert payload["gamma"] == 6.18
    assert (payload["ci_low"], payload["ci_high"]) == (6.14, 6.26)
    assert payload["p_value"] == 0.46
    assert json.dumps(payload)


def test_build_mixed_timezone_log_tallies_rows(tmp_path, capsys):
    path = tmp_path / "mixed.csv"
    path.write_text("admission_id,location,timestamp\n"
                    "a1,ED,2016-03-01T08:00\n"
                    "a1,ward1,2016-03-01T09:00+00:00\n"
                    "a2,ED,2016-03-01T08:15\n"
                    "a2,CT,2016-03-01T10:00\n")
    out = tmp_path / "net.csv"
    code, _, err = run(capsys, "build", path, "--format", "edgelist", "-o", out)
    assert code == 0
    assert "Traceback" not in err
    assert "rejected: 1 {'timezone': 1}" in err
    assert out.read_text() == "from,to,weight\nED,CT,1\n"


def test_build_log_with_byte_order_mark(log_file, tmp_path, capsys):
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + log_file.read_bytes())
    plain_out = tmp_path / "plain.csv"
    bom_out = tmp_path / "bom_net.csv"
    assert run(capsys, "build", log_file, "--format", "edgelist", "-o", plain_out)[0] == 0
    code, _, err = run(capsys, "build", bom, "--format", "edgelist", "-o", bom_out)
    assert code == 0, err
    assert bom_out.read_bytes() == plain_out.read_bytes()


def test_analyze_duplicate_edge_list_rows_is_input_error(tmp_path, capsys):
    path = tmp_path / "net.csv"
    path.write_text("from,to,weight\nA,B,3\nB,C,1\nA,B,5\n")
    code, _, err = run(capsys, "analyze", path, "--skip", "small_world")
    assert code == 2
    assert "duplicate" in err


def test_edge_list_empty_label_cases_are_input_errors(tmp_path, capsys):
    weighted_isolate = tmp_path / "net.csv"
    weighted_isolate.write_text("from,to,weight\nA,B,3\nc,,7\n")
    assert run(capsys, "analyze", weighted_isolate, "--skip", "small_world")[0] == 2
    empty_label = tmp_path / "net.graphml"
    empty_label.write_bytes(export_network(TransferNetwork(frozenset({"a", ""}), {("a", ""): 2}), "graphml"))
    code, _, err = run(capsys, "export", empty_label, "--to", "edgelist")
    assert code == 2
    assert "empty label" in err


_GRAPHML_EDGE = """<?xml version='1.0' encoding='utf-8'?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="d0" for="edge" attr.name="weight" attr.type="long" />
  <graph edgedefault="directed">
    <edge source="a" target="c"><data key="d0">100000000000000000000000</data></edge>
  </graph>
</graphml>
"""


@pytest.mark.parametrize("name, text", [
    # the k_nn product of `a` wraps in int64
    ("net.csv", "from,to,weight\na,c,5000000000000000000\nb,c,1\n"),
    # the in-strength of `c` wraps in int64
    ("net.csv", "from,to,weight\na,c,5000000000000000000\nb,c,5000000000000000000\n"),
    # a weight beyond int64
    ("net.csv", "from,to,weight\na,c,100000000000000000000000\n"),
    ("net.graphml", _GRAPHML_EDGE),
], ids=["knn-wraps", "strength-wraps", "beyond-int64", "beyond-int64-graphml"])
def test_total_weight_above_the_limit_is_input_error(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, "analyze", path, "--skip", "small_world")
    assert code == 2 and out == ""
    assert "2^53 - 1" in err


def test_undirected_total_over_half_the_limit_is_input_error(tmp_path, capsys):
    # the analysis reads each undirected edge in both directions
    path = tmp_path / "net.csv"
    path.write_text(f"from,to,weight\na,b,{2**52}\n")
    code, out, err = run(capsys, "analyze", path, "--undirected", "--skip", "small_world")
    assert code == 2 and out == ""
    assert "counted twice" in err
    assert run(capsys, "analyze", path, "--skip", "small_world", "--boot", "0")[0] == 0


def test_label_graphml_cannot_carry_is_input_error_for_graphml_only(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_text("admission_id,location,timestamp\n1,a\x01b,2016-03-01T08:00\n1,c,2016-03-01T09:00\n")
    out = tmp_path / "net.graphml"
    code, _, err = run(capsys, "build", log, "-o", out)
    assert code == 2 and "'a\\x01b'" in err
    assert not out.exists()
    # the log parser, edge lists and --from-log keep the label
    edges = tmp_path / "net.csv"
    assert run(capsys, "build", log, "--format", "edgelist", "-o", edges)[0] == 0
    assert "a\x01b" in edges.read_text()
    assert run(capsys, "analyze", log, "--from-log", "--skip", "small_world", "--boot", "0")[0] == 0
    code, out_text, err = run(capsys, "export", edges, "--to", "graphml")
    assert code == 2 and out_text == "" and "'a\\x01b'" in err


def test_report_bytes_do_not_depend_on_the_string_hash_seed(tmp_path, capsys):
    log = tmp_path / "log.csv"
    net = tmp_path / "net.graphml"
    assert run(capsys, "synth", "--model", "ba", "--n", "60", "--m", "2", "--journeys", "400",
               "--seed", "8", "-o", log)[0] == 0
    assert run(capsys, "build", log, "-o", net)[0] == 0
    src = str(Path(wardflow.__file__).resolve().parent.parent)
    reports = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run(
            [sys.executable, "-m", "wardflow.cli", "analyze", str(net), "--boot", "10",
             "--sw-samples", "2", "--sw-lattice-swaps", "2000", "--seed", "3"],
            env=env, capture_output=True, check=True, timeout=300,
        )
        reports.append(result.stdout)
    assert reports[0] == reports[1]


def test_input_digest_covers_every_input_file(log_file, tmp_path, capsys):
    import hashlib

    categories = tmp_path / "map.csv"
    categories.write_text(CATEGORIES)
    code, out, _ = run(capsys, "analyze", log_file, "--from-log", "--categories", categories,
                       "--skip", "small_world,fits,resilience")
    assert code == 0
    expected = hashlib.sha256(log_file.read_bytes() + categories.read_bytes()).hexdigest()
    assert json.loads(out)["input"]["digest"] == expected

    net = tmp_path / "net.graphml"
    assert run(capsys, "build", log_file, "-o", net)[0] == 0
    code, out, _ = run(capsys, "analyze", net, "--skip", "small_world,fits,resilience")
    assert code == 0
    assert json.loads(out)["input"]["digest"] == hashlib.sha256(net.read_bytes()).hexdigest()


def test_knn_sidecar_groups_by_projected_degree(tmp_path, capsys):
    # projected: a-b and b-c, weight 3 each; directed degrees would be a 2, b 3, c 1
    edges = tmp_path / "net.csv"
    edges.write_text("from,to,weight\na,b,2\nb,a,1\nb,c,3\n")
    sidecars = tmp_path / "curves"
    code, _, _ = run(capsys, "analyze", edges, "--boot", "10", "--skip", "small_world", "--sidecar-dir", sidecars)
    assert code == 0
    assert (sidecars / "knn_curve.csv").read_text() == "degree,mean_knn_weighted\n1,2.0\n2,1.0\n"


@pytest.mark.parametrize("argv", [["build"], ["analyze", "--from-log", "--skip", "small_world"]])
def test_conflicting_category_rows_are_input_errors(log_file, tmp_path, capsys, argv):
    categories = tmp_path / "map.csv"
    categories.write_text(CATEGORIES + "ward1,surgical\n")
    code, out, err = run(capsys, argv[0], log_file, "--categories", categories, *argv[1:])
    assert code == 2
    assert out == ""
    assert "'ward1'" in err and "'medical'" in err and "'surgical'" in err


def test_repeated_identical_category_row_is_accepted(log_file, tmp_path, capsys):
    once = tmp_path / "once.csv"
    twice = tmp_path / "twice.csv"
    once.write_text(CATEGORIES)
    twice.write_text(CATEGORIES + "ward1,medical\n")
    outputs = []
    for categories in (once, twice):
        code, out, _ = run(capsys, "build", log_file, "--categories", categories, "--format", "edgelist")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.fixture()
def collector_state():
    """Restores the collector's state after a test that sets it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("outcome", ["network", "SchemaError", "UnknownLocationError"])
@pytest.mark.parametrize("enabled", [True, False])
def test_log_ingest_pauses_the_collector_and_restores_its_state(log_file, tmp_path, monkeypatch,
                                                                 collector_state, enabled, outcome):
    categories = tmp_path / "map.csv"
    categories.write_text(CATEGORIES)
    if outcome == "SchemaError":
        log_file.write_text("id,where,when\n1,ED,2016-01-01\n")
    argv = ["build", str(log_file), "--categories", str(categories)]
    if outcome == "UnknownLocationError":
        argv += ["--category-policy", "reject-unknown"]  # ED and CT have no category
    seen = []

    def spy(*args, _original=cli.parse_event_log, **kwargs):
        seen.append(gc.isenabled())
        return _original(*args, **kwargs)

    monkeypatch.setattr(cli, "parse_event_log", spy)
    args = cli._build_parser().parse_args(argv)
    (gc.enable if enabled else gc.disable)()
    if outcome == "network":
        net, _ = cli._network_from_log(args.log, args)
        assert net.nodes == {"ED", "CT", "medical"}
    else:
        with pytest.raises(getattr(eventlog, outcome)):
            cli._network_from_log(args.log, args)
    assert seen == [False]
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("outcome", ["network", "UnknownLocationError"])
@pytest.mark.parametrize("enabled", [True, False])
def test_log_ingest_ends_with_one_full_collection(log_file, tmp_path, collector_state, enabled, outcome):
    categories = tmp_path / "map.csv"
    categories.write_text(CATEGORIES)
    argv = ["build", str(log_file), "--categories", str(categories)]
    if outcome == "UnknownLocationError":
        argv += ["--category-policy", "reject-unknown"]  # raised by the map, before any journey is built
    args = cli._build_parser().parse_args(argv)
    (gc.enable if enabled else gc.disable)()
    before = gc.get_stats()[2]["collections"]
    if outcome == "network":
        cli._network_from_log(args.log, args)
    else:
        with pytest.raises(eventlog.UnknownLocationError):
            cli._network_from_log(args.log, args)
    assert gc.get_stats()[2]["collections"] == before + 1
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("argv", [["build"], ["analyze", "--from-log", "--skip", "small_world"]])
def test_category_map_row_with_an_empty_location_is_input_error(log_file, tmp_path, capsys, argv):
    categories = tmp_path / "map.csv"
    categories.write_text(CATEGORIES + ",medical\n")
    code, out, err = run(capsys, argv[0], log_file, "--categories", categories, *argv[1:])
    assert (code, out) == (2, "")
    assert err == "input error: category map row 4 has an empty location: ['', 'medical']\n"


def test_category_map_header_after_a_blank_line_is_skipped(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_text(LOG + "a4,location,2016-03-03T08:00\na4,ward1,2016-03-03T09:00\n")  # a stop named like the header
    plain, blank_first = tmp_path / "plain.csv", tmp_path / "blank-first.csv"
    plain.write_text(CATEGORIES)
    blank_first.write_text("\n" + CATEGORIES)
    outputs = [run(capsys, "build", log, "--categories", path, "--format", "edgelist") for path in (plain, blank_first)]
    assert outputs[0][0] == 0 and outputs[0] == outputs[1]
    assert "location,medical,1" in outputs[1][1] and "category" not in outputs[1][1]


# the csv module rejects a field longer than this many characters
LONG_FIELD = "x" * 200_000


@pytest.mark.parametrize("argv", [["build"], ["analyze", "--from-log", "--skip", "small_world"]])
def test_event_log_the_csv_module_rejects_is_input_error(tmp_path, capsys, argv):
    log = tmp_path / "log.csv"
    log.write_text(LOG + f"a4,{LONG_FIELD},2016-03-03T08:00\n")
    code, out, err = run(capsys, argv[0], log, *argv[1:])
    assert (code, out) == (2, "")
    assert "input error: event log line 10: field larger than field limit" in err


@pytest.mark.parametrize("argv", [["build"], ["analyze", "--from-log", "--skip", "small_world"]])
def test_category_map_the_csv_module_rejects_is_input_error(log_file, tmp_path, capsys, argv):
    categories = tmp_path / "map.csv"
    categories.write_text(CATEGORIES + f"CT,{LONG_FIELD}\n")
    code, out, err = run(capsys, argv[0], log_file, "--categories", categories, *argv[1:])
    assert (code, out) == (2, "")
    assert "input error: category map line 4: field larger than field limit" in err


@pytest.mark.parametrize("command", [["export", "--to", "dot"], ["analyze", "--skip", "small_world"]])
@pytest.mark.parametrize("row, problem", [(f"a,{LONG_FIELD},1", "field larger than field limit"),
                                          ("a\rb,c,1", "carriage return inside an unquoted field; a field that holds"
                                                        " one must be quoted")],
                         ids=["long-field", "bare-carriage-return"])
def test_edge_list_the_csv_module_rejects_is_input_error(tmp_path, capsys, command, row, problem):
    edges = tmp_path / "edges.csv"
    edges.write_bytes(f"from,to,weight\n{row}\n".encode())
    code, out, err = run(capsys, command[0], edges, *command[1:])
    assert (code, out) == (2, "")
    assert f"input error: edge list line 2: {problem}" in err
    assert "universal-newline" not in err


def _refuse(*_, **__):
    raise AssertionError("ran before the output destination was checked")


@pytest.mark.parametrize("command", [["build", "{log}"], ["export", "{net}", "--to", "dot"],
                                     ["synth", "--model", "ba", "--n", "10", "--m", "2", "--journeys", "5"]])
def test_output_to_a_missing_directory_is_usage_error(log_file, tmp_path, capsys, monkeypatch, command):
    net = tmp_path / "net.graphml"
    assert run(capsys, "build", log_file, "-o", net)[0] == 0
    # the destination is checked before any input is read or generated
    monkeypatch.setattr(cli, "_network_from_log", _refuse)
    monkeypatch.setattr(cli, "import_network", _refuse)
    monkeypatch.setattr(cli.synth_mod, "generate_network", _refuse)
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = [arg.format(log=log_file, net=net) for arg in command]
    for target, problem in ((tmp_path / "missing" / "out", "[Errno 2] No such file or directory"),
                            (taken / "sub" / "out", "[Errno 20] Not a directory")):
        code, out, err = run(capsys, *argv, "-o", target)
        assert (code, out) == (1, "")
        assert err == f"error: cannot write output: {problem}: '{target}'\n"
    assert not (tmp_path / "missing").exists() and taken.is_file()


@pytest.mark.parametrize("command", [["build", "{log}"], ["export", "{net}", "--to", "dot"],
                                     ["synth", "--model", "ba", "--n", "10", "--m", "2", "--journeys", "5"]])
def test_output_naming_an_existing_directory_is_usage_error(log_file, tmp_path, capsys, monkeypatch, command):
    net = tmp_path / "net.graphml"
    assert run(capsys, "build", log_file, "-o", net)[0] == 0
    # nothing is read or generated before the destination is found to be a directory
    monkeypatch.setattr(cli, "parse_event_log", _refuse)
    monkeypatch.setattr(cli, "import_network", _refuse)
    monkeypatch.setattr(cli.synth_mod, "generate_network", _refuse)
    argv = [arg.format(log=log_file, net=net) for arg in command]
    code, out, err = run(capsys, *argv, "-o", tmp_path)
    assert (code, out) == (1, "")
    assert err == f"error: cannot write output: [Errno 21] Is a directory: '{tmp_path}'\n"


@pytest.mark.parametrize("command", [["build", "{log}", "-o", "{out}"],
                                     ["export", "{net}", "--to", "dot", "-o", "{out}"],
                                     ["synth", "--model", "ba", "--n", "10", "--m", "2", "--journeys", "5", "-o", "{out}"],
                                     ["analyze", "{net}", "--sidecar-dir", "{out}"]])
@pytest.mark.parametrize("exists", [True, False])
def test_a_destination_the_process_cannot_write_is_usage_error_before_the_input_is_read(
        log_file, tmp_path, capsys, monkeypatch, command, exists):
    net = tmp_path / "net.graphml"
    assert run(capsys, "build", log_file, "-o", net)[0] == 0
    target = tmp_path / "out"
    if exists and command[0] == "analyze":  # a --sidecar-dir that is there
        target.mkdir()
    elif exists:  # an -o file to overwrite
        target.write_text("")
    monkeypatch.setattr(cli, "_network_from_log", _refuse)
    monkeypatch.setattr(cli, "import_network", _refuse)
    monkeypatch.setattr(cli.synth_mod, "generate_network", _refuse)
    monkeypatch.setattr(cli.report_mod, "build_report", _refuse)
    # root writes anywhere whatever the permission bits, so the permission check is what is faked
    checked = []

    def deny(path, mode):
        checked.append((Path(path), mode))
        return False

    monkeypatch.setattr(cli.os, "access", deny)
    code, out, err = run(capsys, *[arg.format(log=log_file, net=net, out=target) for arg in command])
    assert (code, out) == (1, "")
    assert err == f"error: cannot write output: [Errno 13] Permission denied: '{target}'\n"
    assert checked == [(target if exists else tmp_path, os.W_OK)]


@pytest.mark.parametrize("argv", [["build"], ["analyze", "--from-log", "--skip", "small_world"]])
@pytest.mark.parametrize("problem", ["missing", "conflicting"])
def test_bad_category_map_is_input_error_before_the_log_is_read(log_file, tmp_path, capsys, monkeypatch,
                                                                argv, problem):
    categories = tmp_path / "map.csv"
    if problem == "conflicting":
        categories.write_text(CATEGORIES + "ward1,surgical\n")
    monkeypatch.setattr(cli, "parse_event_log", _refuse)
    code, out, err = run(capsys, argv[0], log_file, "--categories", categories, *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("input error: ") and "rows read" not in err
    assert ("No such file or directory" if problem == "missing" else "'surgical'") in err


@pytest.mark.parametrize("command, option", [
    (["build", "{log}", "-o", ""], "-o/--output"),
    (["export", "{net}", "--to", "dot", "--output", ""], "-o/--output"),
    (["synth", "--model", "ba", "--n", "10", "--m", "2", "--journeys", "5", "-o", ""], "-o/--output"),
    (["analyze", "{log}", "--from-log", "--boot", "5", "--sw-samples", "1", "--sidecar-dir", ""], "--sidecar-dir"),
    (["analyze", "{net}", "--boot", "5", "--sw-samples", "1", "--sidecar-dir", ""], "--sidecar-dir"),
])
def test_empty_destination_path_is_usage_error_before_the_input_is_read(log_file, tmp_path, capsys, monkeypatch,
                                                                         command, option):
    net = tmp_path / "net.graphml"
    assert run(capsys, "build", log_file, "-o", net)[0] == 0
    monkeypatch.setattr(cli, "parse_event_log", _refuse)
    monkeypatch.setattr(cli, "import_network", _refuse)
    monkeypatch.setattr(cli.synth_mod, "generate_network", _refuse)
    monkeypatch.setattr(cli.report_mod, "build_report", _refuse)
    code, out, err = run(capsys, *[arg.format(log=log_file, net=net) for arg in command])
    assert (code, out) == (1, "")
    assert err == f"error: {option} needs a path, got an empty one\n"


def test_analyze_sidecar_dir_naming_a_file_is_usage_error(log_file, tmp_path, capsys, monkeypatch):
    taken = tmp_path / "taken"
    taken.write_text("")
    # checked before the input is read and before any section runs
    monkeypatch.setattr(cli, "_network_from_log", _refuse)
    monkeypatch.setattr(cli.report_mod, "build_report", _refuse)
    code, out, err = run(capsys, *analyze_args(log_file, "--sidecar-dir", taken))
    assert (code, out) == (1, "")
    assert err == f"error: cannot write output: [Errno 17] File exists: '{taken}'\n"


@pytest.mark.parametrize("from_log", [True, False])
def test_analyze_sidecar_dir_below_a_file_is_usage_error(log_file, tmp_path, capsys, monkeypatch, from_log):
    net = tmp_path / "net.graphml"
    assert run(capsys, "build", log_file, "-o", net)[0] == 0
    taken = tmp_path / "taken"
    taken.write_text("")
    below = taken / "sub" / "dir"
    # checked before the input is read and before any section runs
    monkeypatch.setattr(cli, "_network_from_log", _refuse)
    monkeypatch.setattr(cli, "import_network", _refuse)
    monkeypatch.setattr(cli.report_mod, "build_report", _refuse)
    argv = analyze_args(log_file) if from_log else ["analyze", net, "--boot", "5", "--sw-samples", "1"]
    code, out, err = run(capsys, *argv, "--sidecar-dir", below)
    assert (code, out) == (1, "")
    assert err == f"error: cannot write output: [Errno 20] Not a directory: '{below}'\n"



@pytest.mark.parametrize("taken", ["degree_distribution.csv", "knn_curve.csv", "attack_random.csv"])
def test_a_sidecar_name_taken_by_a_directory_is_usage_error_before_the_input_is_read(log_file, tmp_path, capsys,
                                                                                    monkeypatch, taken):
    sidecars = tmp_path / "side"
    (sidecars / taken).mkdir(parents=True)
    monkeypatch.setattr(cli, "_network_from_log", _refuse)
    monkeypatch.setattr(cli.report_mod, "build_report", _refuse)
    code, out, err = run(capsys, *analyze_args(log_file, "--skip", "small_world", "--sidecar-dir", sidecars))
    assert (code, out) == (1, "")
    assert err == f"error: cannot write output: [Errno 21] Is a directory: '{sidecars / taken}'\n"
    assert [path.name for path in sidecars.iterdir()] == [taken]


def test_a_sidecar_the_run_does_not_write_may_be_taken(log_file, tmp_path, capsys):
    sidecars = tmp_path / "side"
    (sidecars / "attack_degree.csv").mkdir(parents=True)
    code, out, _ = run(capsys, *analyze_args(log_file, "--skip", "small_world,resilience", "--sidecar-dir", sidecars))
    assert code == 0 and "resilience" not in json.loads(out)
    assert sorted(path.name for path in sidecars.iterdir()) == ["attack_degree.csv", "degree_distribution.csv",
                                                                 "knn_curve.csv"]


@pytest.fixture()
def network_inputs(log_file, tmp_path, capsys):
    """Placeholder -> path: the log, its GraphML and edge list, an undirected edge list, a category map,
    and the GraphML again under a `.csv` name."""
    paths = {"log": log_file, "net": tmp_path / "net.graphml", "edges": tmp_path / "net.csv",
             "pairs": tmp_path / "pairs.csv", "map": tmp_path / "map.csv", "net_csv": tmp_path / "graphml.csv"}
    assert run(capsys, "build", log_file, "-o", paths["net"])[0] == 0
    paths["net_csv"].write_bytes(paths["net"].read_bytes())
    assert run(capsys, "build", log_file, "--format", "edgelist", "-o", paths["edges"])[0] == 0
    paths["pairs"].write_text("from,to,weight\nED,ward1,2\nward1,CT,1\n")
    paths["map"].write_text(CATEGORIES)
    return paths


@pytest.mark.parametrize("command, message", [
    (["analyze", "{net}", "--categories", "{map}", "--category-policy", "reject-unknown", "--delimiter", ";"],
     "only an event log read with --from-log takes --delimiter, --categories, --category-policy"),
    (["analyze", "{edges}", "--admission-col", "id", "--location-col", "ward", "--timestamp-col", "at",
      "--timestamp-format", "%Y"],
     "only an event log read with --from-log takes --admission-col, --location-col, --timestamp-col, "
     "--timestamp-format"),
    (["analyze", "{log}", "--from-log", "--undirected"], "an event log read with --from-log does not take --undirected"),
    (["analyze", "{net}", "--undirected"], "a GraphML input does not take --undirected"),
    (["analyze", "{net_csv}", "--undirected"], "a GraphML input does not take --undirected"),
    (["export", "{net}", "--undirected", "--to", "dot"], "a GraphML input does not take --undirected"),
    (["export", "{net_csv}", "--undirected", "--to", "dot"], "a GraphML input does not take --undirected"),
])
def test_an_option_the_input_cannot_use_is_usage_error_before_the_input_is_read(network_inputs, capsys,
                                                                                monkeypatch, command, message):
    monkeypatch.setattr(cli, "_network_from_log", _refuse)
    monkeypatch.setattr(cli, "import_network", _refuse)
    code, out, err = run(capsys, *[arg.format(**network_inputs) for arg in command])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["analyze", "{pairs}", "--undirected"],
    ["analyze", "{log}", "--from-log", "--categories", "{map}", "--delimiter", ",", "--category-policy", "keep-as-is"],
    ["analyze", "{net}", "--delimiter", ","],  # an option at its default changes nothing
    ["export", "{pairs}", "--undirected", "--to", "dot"],
])
def test_an_option_the_input_can_use_is_accepted(network_inputs, capsys, command):
    options = ["--boot", "5", "--sw-samples", "1", "--skip", "small_world"] if command[0] == "analyze" else []
    code, out, _ = run(capsys, *[arg.format(**network_inputs) for arg in command], *options)
    assert code == 0 and out


@pytest.mark.parametrize("command", [["analyze", "{net}", "--format", "graphml"],
                                     ["export", "{net}", "--source-format", "graphml", "--to", "dot"]])
def test_an_input_format_option_is_usage_error(network_inputs, capsys, monkeypatch, command):
    monkeypatch.setattr(cli, "import_network", _refuse)
    code, out, err = run(capsys, *[arg.format(**network_inputs) for arg in command])
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --" in err


@pytest.mark.parametrize("source, renamed", [("net", "copy.csv"), ("edges", "copy.txt"), ("pairs", "copy")])
def test_a_network_file_is_read_by_its_bytes_not_its_name(network_inputs, tmp_path, capsys, source, renamed):
    copy = tmp_path / renamed
    copy.write_bytes(network_inputs[source].read_bytes())
    for command in (["analyze", "--boot", "5", "--sw-samples", "1", "--seed", "2"], ["export", "--to", "dot"]):
        outputs = [run(capsys, command[0], path, *command[1:]) for path in (network_inputs[source], copy)]
        assert outputs[0][:2] == outputs[1][:2] and outputs[0][0] == 0 and outputs[0][1]


def test_a_utf16_edge_list_is_input_error_that_names_utf8(tmp_path, capsys):
    edges = tmp_path / "u16.txt"
    edges.write_bytes("from,to,weight\na,b,1\n".encode("utf-16"))
    code, out, err = run(capsys, "export", edges, "--to", "dot")
    assert (code, out) == (2, "")
    assert err.startswith("input error: an edge list must be UTF-8 text: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["build"], ["analyze", "--from-log", "--skip", "small_world"]])
def test_an_event_log_byte_that_is_not_utf8_is_input_error_that_names_its_line(tmp_path, capsys, argv):
    log = tmp_path / "log.csv"
    log.write_bytes(LOG.encode("utf-8") + b"a4,\xffCT,2016-03-03T08:00\n")
    offset = len(LOG.encode("utf-8")) + 3
    code, out, err = run(capsys, argv[0], log, *argv[1:])
    assert (code, out) == (2, "")
    assert err == f"input error: event log line 10: byte 0xff at offset {offset} of the file is not UTF-8 " \
                  "(invalid start byte)\n"


def test_a_category_map_byte_that_is_not_utf8_is_input_error_that_names_its_line(log_file, tmp_path, capsys):
    rows = "".join(f"w{i:04d},category{i % 7}\n" for i in range(1000)).encode()
    data = b"location,category\n" + rows.replace(b"w0700,category", b"w0700,categ\xffry")
    categories = tmp_path / "map.csv"
    categories.write_bytes(data)
    offset = data.index(b"\xff")
    code, out, err = run(capsys, "build", log_file, "--categories", categories)
    assert (code, out) == (2, "")
    assert err == f"input error: category map line 702: byte 0xff at offset {offset} of the file is not UTF-8 " \
                  "(invalid start byte)\n"


# per command: a usage error (exit 1) and an input error (exit 2)
_EXIT_CASES = {
    "build": (["build", "{log}", "--delimiter", ";;"], ["build", "{missing}"]),
    "analyze": (["analyze", "{net}", "--boot", "-1"], ["analyze", "{missing}"]),
    "export": (["export", "{net}", "--to", "gexf"], ["export", "{missing}", "--to", "dot"]),
    "synth": (["synth", "--model", "er", "--n", "5", "--p", "0.5", "--journeys", "5", "--seed", "-1"],
              ["synth", "--model", "ws", "--n", "10", "--k", "3", "--p", "0.1", "--journeys", "5"]),
}


@pytest.mark.parametrize("command", sorted(_EXIT_CASES))
def test_exit_codes_and_their_stderr_prefixes(network_inputs, tmp_path, capsys, command):
    paths = dict(network_inputs, missing=tmp_path / "missing.csv")
    usage, bad_input = ([arg.format(**paths) for arg in argv] for argv in _EXIT_CASES[command])
    code, out, err = run(capsys, *usage)
    assert (code, out) == (1, "")
    assert (err.startswith("error: ") and err.count("\n") == 1) or err.startswith("usage: wardflow")
    code, out, err = run(capsys, *bad_input)
    assert (code, out) == (2, "")
    assert err.startswith("input error: ") and err.count("\n") == 1


def test_a_bom_edge_list_and_an_indented_graphml_are_read(network_inputs, tmp_path, capsys):
    edges, graphml = network_inputs["edges"].read_bytes(), network_inputs["net"].read_bytes()
    bom = tmp_path / "bom.txt"
    bom.write_bytes(b"\xef\xbb\xbf" + edges)
    # whitespace may come before the root element, but not before an XML declaration
    declaration, body = graphml.split(b"\n", 1)
    assert declaration.startswith(b"<?xml")
    indented = tmp_path / "indented.csv"
    indented.write_bytes(b"\xef\xbb\xbf \r\n\t" + body)
    for path, plain in ((bom, network_inputs["edges"]), (indented, network_inputs["net"])):
        assert run(capsys, "export", path, "--to", "dot") == run(capsys, "export", plain, "--to", "dot")
