"""Acceptance criteria, one test per criterion, each printing PASS/FAIL."""
import io
import json
import time

import numpy as np
import pytest
from scipy.special import zeta as hurwitz_zeta

from oracles import (
    brute_assortativity,
    brute_avg_path_candidates,
    brute_betweenness,
    brute_clustering,
    brute_degrees,
    brute_flow_hierarchy,
    brute_knn,
    brute_reciprocity,
    brute_strengths,
    random_directed_network,
)
from wardflow import metrics as metrics_mod
from wardflow.classify import (
    HUB_BOTTLENECK,
    HUB_NON_BOTTLENECK,
    NEITHER,
    NON_HUB_BOTTLENECK,
    classify_hubs_bottlenecks,
)
from wardflow.cli import main
from wardflow.metrics import DIRECTED_SCOPE, PROJECTION_SCOPE, NodeMetrics
from wardflow.powerlaw import bootstrap_ci, fit_tail, gof_pvalue
from wardflow.resilience import attack, giant_wcc_area
from wardflow.smallworld import latticize, rewire_random, small_world_report
from wardflow.synth import ModelSpec, generate_event_log, generate_network, geometric_stop_lengths, write_event_log_csv

TOL = 1e-9


def criterion(number: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _matches(value, expected) -> bool:
    if expected is None or value is None:
        return expected is None and value is None
    return abs(value - expected) <= TOL


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for seed in range(200):
        net = random_directed_network(np.random.default_rng(np.random.SeedSequence([1, seed])))
        assert metrics_mod.degrees(net) == brute_degrees(net)
        assert metrics_mod.strengths(net) == brute_strengths(net)
        assert _matches(metrics_mod.reciprocity(net), brute_reciprocity(net))
        assert _matches(metrics_mod.flow_hierarchy(net), brute_flow_hierarchy(net))

        local, c_av, transitivity = metrics_mod.clustering(net)
        oracle_local, oracle_c_av, oracle_transitivity = brute_clustering(net)
        assert all(_matches(local[n], oracle_local[n]) for n in net.nodes)
        assert _matches(c_av, oracle_c_av)
        assert _matches(transitivity, oracle_transitivity)

        oracle_b = brute_betweenness(net)
        assert all(_matches(v, oracle_b[n]) for n, v in metrics_mod.betweenness(net).items())

        assert _matches(metrics_mod.assortativity(net), brute_assortativity(net))

        oracle_knn = brute_knn(net)
        per_node, _ = metrics_mod.knn(net)
        assert all(_matches(per_node[n], oracle_knn[n]) for n in net.nodes)

        for directed, scope in ((True, DIRECTED_SCOPE), (False, PROJECTION_SCOPE)):
            candidates, coverage = brute_avg_path_candidates(net, directed)
            value, actual_coverage = metrics_mod.avg_shortest_path(net, scope)
            assert _matches(actual_coverage, coverage)
            if not candidates:
                assert value is None
            else:
                assert any(abs(value - c) <= TOL for c in candidates)
        checked += 1
    elapsed = time.perf_counter() - start
    criterion(1, "oracle equivalence", checked == 200 and elapsed < 60.0,
              f"{checked} graphs, 9 operations, {elapsed:.1f}s")


def _oracle_sample_discrete_power_law(gamma: float, xmin: int, size: int,
                                      rng: np.random.Generator) -> np.ndarray:
    """Independent inverse-CDF sampler: bisection on the zeta CCDF."""
    w = 1.0 - rng.random(size)
    norm = hurwitz_zeta(gamma, xmin)
    lo = np.full(size, xmin, dtype=np.int64)
    hi = np.full(size, xmin, dtype=np.int64)
    for _ in range(64):
        grow = hurwitz_zeta(gamma, hi + 1.0) / norm > w
        if not grow.any():
            break
        hi[grow] = hi[grow] * 2 + 1
    while np.any(hi > lo):
        mid = (lo + hi) // 2
        up = hurwitz_zeta(gamma, mid + 1.0) / norm > w
        lo = np.where(up, mid + 1, lo)
        hi = np.where(up, hi, mid)
    return lo


@pytest.mark.slow  # 137-218 s on 2 vCPUs: 80k tail fits
def test_criterion_2_power_law_recovery():
    start = time.perf_counter()
    n_runs, n, n_boot = 100, 10_000, 200
    summary = []
    ok = True
    for gamma in (2.5, 3.5):
        gamma_hits = ci_hits = gof_hits = 0
        for run in range(n_runs):
            rng = np.random.default_rng(np.random.SeedSequence([int(10 * gamma), run]))
            samples = _oracle_sample_discrete_power_law(gamma, 1, n, rng)
            fit = fit_tail(samples)
            if abs(fit.gamma - gamma) <= 0.1:
                gamma_hits += 1
            lo, hi = bootstrap_ci(samples, n_boot=n_boot, seed=run)
            if lo <= gamma <= hi:
                ci_hits += 1
            if gof_pvalue(fit, samples, n_boot=n_boot, seed=run) > 0.1:
                gof_hits += 1
        summary.append(
            f"gamma={gamma}: |err|<=0.1 {gamma_hits}/100, CI covers {ci_hits}/100, p>0.1 {gof_hits}/100"
        )
        ok = ok and gamma_hits >= 90 and ci_hits >= 90 and gof_hits >= 80
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 600.0
    criterion(2, "power-law recovery", ok, "; ".join(summary) + f", {elapsed:.0f}s")


def test_criterion_3_small_world_discrimination():
    # bounds frozen after a 20-seed spread check per regime:
    # p=0 in [-0.683, -0.669]; p=0.1 in [-0.045, +0.162]; ER in [+0.825, +0.925]
    regimes = [
        ("ring p=0", ModelSpec("ring-rewire", n=100, k=6, p=0.0, seed=0), lambda w: w <= -0.5),
        ("ring p=0.1", ModelSpec("ring-rewire", n=100, k=6, p=0.1, seed=0), lambda w: abs(w) <= 0.25),
        ("uniform random", ModelSpec("uniform-random", n=100, p=6 / 99, seed=0), lambda w: w >= 0.3),
    ]
    details = []
    ok = True
    for name, spec, check in regimes:
        report = small_world_report(generate_network(spec), n_samples=20, seed=0)
        details.append(f"{name}: omega={report.omega:+.3f}")
        ok = ok and check(report.omega)
    criterion(3, "small-world discrimination", ok, "; ".join(details))


def _degree_sequence(net) -> list[int]:
    degree = {node: 0 for node in net.nodes}
    for u, v in net.edges:
        degree[u] += 1
        degree[v] += 1
    return sorted(degree.values())


def test_criterion_4_reference_null_validity():
    failures = 0
    for seed in range(100):
        rng = np.random.default_rng(np.random.SeedSequence([4, seed]))
        n = int(rng.integers(10, 60))
        p = float(rng.uniform(0.05, 0.4))
        net = generate_network(ModelSpec("uniform-random", n=n, p=p, seed=seed))
        wanted = _degree_sequence(net)
        if _degree_sequence(rewire_random(net, seed=seed).network) != wanted:
            failures += 1
        if _degree_sequence(latticize(net, seed=seed, n_swaps=20 * net.edge_count).network) != wanted:
            failures += 1
    criterion(4, "reference-null degree preservation", failures == 0,
              f"100 networks, both null models, {failures} failures")


def test_criterion_5_targeted_attack_beats_random():
    wins = 0
    details = []
    for seed in range(10):
        net = generate_network(ModelSpec("preferential-attachment", n=200, m=2, seed=seed))
        targeted_area = giant_wcc_area(attack(net, "degree"))
        random_areas = [
            giant_wcc_area(attack(net, "random", seed=1000 * seed + j)) for j in range(20)
        ]
        mean_random = float(np.mean(random_areas))
        if targeted_area < mean_random:
            wins += 1
        details.append(f"{targeted_area:.3f}<{mean_random:.3f}")
    criterion(5, "degree-targeted fragility", wins == 10, f"10 seeds: {'; '.join(details[:3])}...")


def test_criterion_6_pipeline_scale(tmp_path, capsys):
    net = generate_network(ModelSpec("preferential-attachment", n=200, m=2, seed=1))
    journeys, _ = generate_event_log(net, 16_500, geometric_stop_lengths(mean=15.0), seed=1)
    transfers = sum(len(j.stops) - 1 for j in journeys)
    log_path = tmp_path / "scale.csv"
    with open(log_path, "w") as handle:
        write_event_log_csv(journeys, handle)

    start = time.perf_counter()
    net_path = tmp_path / "scale.graphml"
    assert main(["build", str(log_path), "-o", str(net_path)]) == 0
    assert main([
        "analyze", str(net_path), "--boot", "0", "--skip", "small_world", "--seed", "1",
    ]) == 0
    elapsed = time.perf_counter() - start
    report = json.loads(capsys.readouterr().out)

    expected = ["ingest", "network_summary", "node_metrics", "network_metrics",
                "fits", "classification", "resilience"]
    present = [name for name in expected if report.get(name) is not None or name == "ingest"]
    sections_ok = all(report.get(name) is not None for name in expected if name != "ingest")
    criterion(
        6,
        "pipeline scale",
        sections_ok and "small_world" not in report and elapsed < 60.0 and transfers > 200_000,
        f"{transfers} transfers, build+analyze {elapsed:.1f}s, sections {present}",
    )


def _fixture_row(label, degree, betweenness):
    return NodeMetrics(label, degree, 0, 0, 0, degree, 0, 0, 0.0, betweenness, None)


def test_criterion_7_classification_fixtures():
    # distinct values: ceil(0.2 * 10) = 2 -> exactly the top two qualify
    distinct = {
        f"n{i:02d}": _fixture_row(f"n{i:02d}", degree=i + 1, betweenness=(i + 1) / 20.0)
        for i in range(10)
    }
    table = classify_hubs_bottlenecks(distinct, quantile=0.20)
    expected = {f"n{i:02d}": (HUB_BOTTLENECK if i >= 8 else NEITHER) for i in range(10)}
    distinct_ok = dict(table.quadrants) == expected and table.degree_threshold == 9

    # tie case: degrees [5,5,5,3,1,...] tie across the threshold rank, all three fives count;
    # betweenness has a unique top pair
    tied = {}
    degree_values = [5, 5, 5, 3, 1, 1, 1, 1, 1, 1]
    betweenness_values = [0.9, 0.8, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]
    for i, (k, b) in enumerate(zip(degree_values, betweenness_values)):
        tied[f"t{i:02d}"] = _fixture_row(f"t{i:02d}", k, b)
    tie_table = classify_hubs_bottlenecks(tied, quantile=0.20)
    tie_expected = {
        "t00": HUB_BOTTLENECK,
        "t01": HUB_BOTTLENECK,
        "t02": HUB_NON_BOTTLENECK,  # degree tie pulls it in despite rank > ceil(qN)
        **{f"t{i:02d}": NEITHER for i in range(3, 10)},
    }
    tie_ok = dict(tie_table.quadrants) == tie_expected and tie_table.degree_threshold == 5

    # all-equal betweenness: everyone reaches the betweenness cut
    flat = {f"f{i}": _fixture_row(f"f{i}", degree=i + 1, betweenness=0.25) for i in range(10)}
    flat_table = classify_hubs_bottlenecks(flat, quantile=0.20)
    flat_ok = all(
        quad in (HUB_BOTTLENECK, NON_HUB_BOTTLENECK) for quad in flat_table.quadrants.values()
    ) and sum(1 for q in flat_table.quadrants.values() if q == HUB_BOTTLENECK) == 2

    criterion(7, "classification fixtures", distinct_ok and tie_ok and flat_ok,
              f"distinct={distinct_ok}, ties={tie_ok}, flat_betweenness={flat_ok}")


def test_criterion_8_deterministic_reports(tmp_path, capsys):
    net = generate_network(ModelSpec("preferential-attachment", n=60, m=2, seed=3))
    journeys, _ = generate_event_log(net, 800, seed=3)
    log_path = tmp_path / "det.csv"
    with open(log_path, "w") as handle:
        write_event_log_csv(journeys, handle)

    argv = ["analyze", str(log_path), "--from-log", "--boot", "25",
            "--sw-samples", "5", "--seed", "11", "--attack", "degree,random,betweenness"]
    outputs = []
    for _ in range(2):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    identical = outputs[0] == outputs[1]
    criterion(8, "deterministic reports", identical,
              f"{len(outputs[0])} bytes, byte-identical={identical}")
