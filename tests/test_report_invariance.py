"""A report is a function of the network: the order its edges were read in, and the route they came by, change nothing.

Every metric sums in the order of the network's indexed core, so permuting
the rows of an edge list, or reading a log's network back from the GraphML
that `build` wrote, gives the same analysis bytes. Only the input digest,
and the ingest tally of a log, describe the input rather than the network.
"""
import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wardflow.cli import main

# every section runs, each randomized one with few members
ANALYZE = ["--boot", "5", "--sw-samples", "1", "--sw-lattice-swaps", "200", "--seed", "3",
           "--attack", "degree,betweenness,random"]


def _analyze(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["analyze", *map(str, argv), *ANALYZE])
    return code, out.getvalue()


@st.composite
def edge_list_rows(draw, directed: bool):
    """Rows of an edge list, each orientation of a pair drawn on its own when directed, plus isolated nodes."""
    labels = [f"w{i}" for i in range(draw(st.integers(min_value=3, max_value=16)))]
    pairs = [(u, v) for u in labels for v in labels if (u != v if directed else u < v)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=60, unique=True))
    rows = []
    for u, v in chosen:
        if not directed and draw(st.booleans()):
            u, v = v, u  # an undirected row may name its pair either way round
        rows.append(f"{u},{v},{draw(st.integers(min_value=1, max_value=9))}")
    linked = {label for pair in chosen for label in pair}
    rows += [f"{label},,0" for label in labels if label not in linked]
    return rows


@pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_permuting_edge_list_rows_keeps_the_report_bytes(directed, data, tmp_path_factory):
    rows = data.draw(edge_list_rows(directed))
    permuted = data.draw(st.permutations(rows))
    flags = [] if directed else ["--undirected"]
    reports = []
    for order in (rows, permuted):
        path = tmp_path_factory.mktemp("edges") / "net.csv"
        path.write_text("from,to,weight\n" + "\n".join(order) + "\n")
        code, out = _analyze(path, *flags)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert out.count(digest) == 1
        reports.append((code, out.replace(digest, "")))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("mapped", [False, True], ids=["locations", "categories"])
def test_log_and_the_graphml_built_from_it_give_one_report(mapped, tmp_path, capsys):
    log, net, categories = tmp_path / "log.csv", tmp_path / "net.graphml", tmp_path / "map.csv"
    assert main(["synth", "--model", "ba", "--n", "30", "--m", "2", "--journeys", "120", "--mean-stops", "5",
                 "--seed", "7", "-o", str(log)]) == 0
    categories.write_text("location,category\n" + "".join(f"w{i:02d},c{i % 4}\n" for i in range(0, 30, 2)))
    mapping = ["--categories", str(categories)] if mapped else []
    assert main(["build", str(log), *mapping, "-o", str(net)]) == 0
    capsys.readouterr()
    reports = []
    for argv in ([log, "--from-log", *mapping], [net]):
        code, out = _analyze(*argv)
        assert code == 0
        report = json.loads(out)
        for key in ("input", "ingest", "ingest_reason"):
            report.pop(key, None)
        reports.append(json.dumps(report, indent=2))
    assert reports[0] == reports[1]


def _both_ways(row: str) -> list[str]:
    """The directed rows of an undirected edge-list row; an isolated node's row stays as it is."""
    u, v, weight = row.split(",")
    return [row] if v == "" else [row, f"{v},{u},{weight}"]


@settings(max_examples=15, deadline=None)
@given(rows=edge_list_rows(directed=False))
def test_an_undirected_edge_list_reports_as_its_symmetric_directed_form(rows, tmp_path_factory):
    symmetric = [directed_row for row in rows for directed_row in _both_ways(row)]
    reports = []
    for order, flags in ((rows, ["--undirected"]), (symmetric, [])):
        path = tmp_path_factory.mktemp("edges") / "net.csv"
        path.write_text("from,to,weight\n" + "\n".join(order) + "\n")
        code, out = _analyze(path, *flags)
        assert code == 0
        report = json.loads(out)
        del report["input"], report["network_summary"]["directed"]
        reports.append(report)
    assert reports[0] == reports[1]
