"""Byte-for-byte golden report: a fixed-seed `analyze` must not change.

The report was recorded before the lattice null was screened in numpy
windows. Most of each lattice chain (116,000 proposals over 116 projected
edges) runs in the screened phase, so any drift in the swap outcomes, or in
any other section, changes these bytes.
"""
import json
from pathlib import Path

import pytest

from test_screened_swaps import screening_spy
from wardflow import pool
from wardflow.cli import main

GOLDEN = Path(__file__).with_name("golden_report.json")


def test_analyze_report_matches_recorded_bytes(tmp_path, capsys, monkeypatch):
    # members run serially (the same report) so that this process sees the screening
    monkeypatch.setattr(pool, "_worker_count", lambda tasks: 1)
    screened = screening_spy(monkeypatch)
    log = tmp_path / "golden.csv"
    assert main(["synth", "--model", "ba", "--n", "60", "--m", "2", "--journeys", "150",
                 "--mean-stops", "6", "--seed", "5", "-o", str(log)]) == 0
    capsys.readouterr()
    assert main(["analyze", str(log), "--from-log", "--boot", "10", "--sw-samples", "2",
                 "--seed", "3", "--attack", "degree,random,betweenness"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    # every section ran, and most lattice proposals went through the screened phase
    assert not [key for key in report if key.endswith("_reason")]
    lattice = report["small_world"]
    assert screened[0] > lattice["n_samples"] * lattice["n_swaps_lattice"] // 2
    assert out.encode() == GOLDEN.read_bytes()


# Small networks whose reports carry `_reason` keys: a null node field, null
# network metrics, failed fit parts, null sigma and omega, and a missing
# ingest section. Their bytes pin where each reason is written.
REASON_CASES = {
    "directed": ("a,b,2\nb,a,1\nc,,0\n", []),
    "undirected": ("a,b,2\nb,c,1\nc,d,3\nd,e,1\nb,f,1\ng,,0\n",
                   ["--undirected", "--weighted-betweenness", "--attack", "degree,betweenness,random"]),
}


@pytest.mark.parametrize("case", sorted(REASON_CASES))
def test_reason_placement_matches_recorded_bytes(case, tmp_path, capsys):
    rows, flags = REASON_CASES[case]
    edges = tmp_path / "net.csv"
    edges.write_text("from,to,weight\n" + rows)
    assert main(["analyze", str(edges), "--boot", "10", "--sw-samples", "2", "--seed", "3", *flags]) == 0
    out = capsys.readouterr().out
    assert "_reason" in out
    assert out.encode() == GOLDEN.with_name(f"golden_report_reasons_{case}.json").read_bytes()
