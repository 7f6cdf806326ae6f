import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta as hurwitz_zeta

from oracles import ref_golden_mle_gamma
from wardflow import powerlaw
from wardflow.metrics import NodeMetrics, compute_node_metrics, knn
from wardflow.network import TransferNetwork
from wardflow.powerlaw import (
    BETWEENNESS_DEGREE,
    KNN_DEGREE,
    STRENGTH_DEGREE,
    analyze_tail,
    bootstrap_ci,
    fit_betweenness_degree,
    fit_knn_degree,
    fit_strength_degree,
    fit_tail,
    gof_pvalue,
    sample_tail,
)


def zeta_loglik(gamma, samples, xmin):
    tail = [x for x in samples if x >= xmin]
    return -len(tail) * math.log(hurwitz_zeta(gamma, xmin)) - gamma * sum(math.log(x) for x in tail)


def grid_maximize(samples, xmin):
    """Independent numeric maximization: coarse grid plus local refinement."""
    grid = np.linspace(1.000001, 64, 20000)
    values = [zeta_loglik(g, samples, xmin) for g in grid]
    best = grid[int(np.argmax(values))]
    lo, hi = best - 0.01, best + 0.01
    for _ in range(60):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if zeta_loglik(m1, samples, xmin) < zeta_loglik(m2, samples, xmin):
            lo = m1
        else:
            hi = m2
    return (lo + hi) / 2


def test_mle_matches_numeric_maximization_two_values():
    samples = [2] * 40 + [5] * 10
    fit = fit_tail(samples)
    assert fit.xmin == 2
    assert fit.gamma == pytest.approx(grid_maximize(samples, 2), abs=1e-6)


def test_mle_matches_numeric_maximization_scanned():
    rng = np.random.default_rng(5)
    samples = sample_tail(2.7, 3, 400, rng)
    fit = fit_tail(samples)
    assert fit.gamma == pytest.approx(grid_maximize(samples, fit.xmin), abs=1e-6)


def solver_inputs(samples):
    """`_mle_gamma`'s arguments for every xmin candidate of each sample: tail sizes, tail log sums, xmins."""
    setups = [powerlaw._candidates(sample) for sample in samples]
    return tuple(np.concatenate(parts) for parts in zip(*(
        ((len(setup.x) - setup.cand_first).astype(float), setup.log_sum, setup.cand) for setup in setups)))


def assert_as_likely_as_the_golden_section(inputs):
    """The log-likelihood of each gamma is never below the golden section's by more than 1e-9 relative."""
    def loglik(gammas, n_tail, log_sum, xmin):
        return -n_tail * np.log(hurwitz_zeta(gammas, xmin.astype(float))) - gammas * log_sum

    ours = loglik(powerlaw._mle_gamma(*inputs), *inputs)
    golden = loglik(ref_golden_mle_gamma(*inputs), *inputs)
    assert np.all(ours >= golden - 1e-9 * np.abs(golden))


def fittable(largest):
    """Samples of at least two distinct values, from narrow to heavy-tailed, none above `largest`."""
    return st.lists(st.integers(1, 40) | st.integers(1, largest), min_size=2, max_size=60).filter(
        lambda sample: len(set(sample)) >= 2)


@given(samples=st.lists(fittable(10**6), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_mle_of_a_batch_has_the_bits_of_its_samples_alone(samples):
    batched = powerlaw._mle_gamma(*solver_inputs(samples))
    alone = np.concatenate([powerlaw._mle_gamma(*solver_inputs([sample])) for sample in samples])
    assert np.array_equal(batched, alone)


def test_mle_past_the_upper_bound_stops_at_it():
    # the likelihood of this tail still rises at gamma = 64
    (gamma,) = powerlaw._mle_gamma(*solver_inputs([[100] * 100 + [101]]))
    assert 64.0 - 1e-6 <= gamma <= 64.0


def test_mle_of_a_far_outlier_stays_in_the_bracket():
    (gamma,) = powerlaw._mle_gamma(*solver_inputs([[1, 10**6]]))
    assert math.isfinite(gamma) and gamma >= powerlaw._GAMMA_LO


# past xmin of about 65,000 the Hurwitz zeta underflows at large gamma and the likelihood reads infinite
@given(samples=st.lists(fittable(10**4), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_mle_is_at_least_as_likely_as_the_golden_section(samples):
    assert_as_likely_as_the_golden_section(solver_inputs(samples))


def test_mle_is_at_least_as_likely_as_the_golden_section_on_bootstrap_replicates():
    x = sample_tail(2.6, 2, 2000, np.random.default_rng(101))
    rng = np.random.default_rng(7)
    assert_as_likely_as_the_golden_section(
        solver_inputs([x] + [x[rng.integers(0, len(x), size=len(x))] for _ in range(20)]))


def test_all_samples_equal_is_degenerate():
    with pytest.raises(ValueError):
        fit_tail([4] * 100)


def test_scan_ties_prefer_smaller_xmin():
    rng = np.random.default_rng(17)
    samples = sample_tail(2.5, 1, 3000, rng)
    fit = fit_tail(samples)
    assert fit.xmin >= 1
    assert fit.n_tail >= 2


def test_sampler_matches_model_ccdf():
    rng = np.random.default_rng(33)
    gamma, xmin = 2.5, 2
    draws = sample_tail(gamma, xmin, 200_000, rng)
    assert draws.min() >= xmin
    norm = hurwitz_zeta(gamma, xmin)
    for x in (2, 3, 5, 10, 30):
        expected = hurwitz_zeta(gamma, x) / norm
        observed = np.mean(draws >= x)
        assert observed == pytest.approx(expected, abs=4e-3)


def test_sampler_rejects_a_draw_beyond_int64():
    # with gamma this close to 1 the draws past the lookup table lie far beyond 2**63
    with pytest.raises(ValueError, match="gamma=1.000001"):
        sample_tail(1.000001, 1, 8, np.random.default_rng(1))


def test_gof_and_ci_are_deterministic():
    rng = np.random.default_rng(2)
    samples = sample_tail(2.5, 1, 1500, rng)
    fit = fit_tail(samples)
    p1 = gof_pvalue(fit, samples, n_boot=30, seed=99)
    p2 = gof_pvalue(fit, samples, n_boot=30, seed=99)
    assert p1 == p2
    ci1 = bootstrap_ci(samples, n_boot=30, seed=99)
    ci2 = bootstrap_ci(samples, n_boot=30, seed=99)
    assert ci1 == ci2


def test_gof_requires_replicates():
    samples = [1, 2, 3, 4]
    fit = fit_tail(samples)
    with pytest.raises(ValueError):
        gof_pvalue(fit, samples, n_boot=0, seed=1)


def test_bootstrap_single_replicate_degenerates():
    rng = np.random.default_rng(4)
    samples = sample_tail(2.5, 1, 800, rng)
    lo, hi = bootstrap_ci(samples, n_boot=1, seed=5)
    assert lo <= hi
    gammas = bootstrap_ci(samples, n_boot=1, seed=5)
    assert gammas == (lo, hi)


def test_analyze_tail_assembles_fit():
    rng = np.random.default_rng(6)
    samples = sample_tail(2.8, 1, 1200, rng)
    fit = analyze_tail(samples, n_boot=25, seed=7)
    assert fit.n_bootstrap == 25
    assert fit.seed == 7
    assert 0.0 <= fit.p_value <= 1.0
    assert fit.ci_low <= fit.gamma <= fit.ci_high


def test_analyze_tail_rejects_a_negative_bootstrap_count():
    with pytest.raises(ValueError, match="n_boot must be >= 0, got -5"):
        analyze_tail([1, 2, 3, 4], n_boot=-5, seed=1)


def net_of(edges):
    nodes = {u for u, _ in edges} | {v for _, v in edges}
    return TransferNetwork(frozenset(nodes), dict(edges), directed=True)


def test_strength_degree_uniform_weights_gives_unit_slope():
    w = 7
    edges = {}
    labels = ["A", "B", "C", "D", "E"]
    for i, u in enumerate(labels):
        for v in labels[i + 1:]:
            edges[(u, v)] = w
    edges[("B", "A")] = w  # vary the degrees a little
    net = net_of(edges)
    fit = fit_strength_degree(compute_node_metrics(net))
    assert fit.kind == STRENGTH_DEGREE
    assert fit.coefficients[0] == pytest.approx(1.0, abs=1e-9)
    assert fit.coefficients[1] == pytest.approx(math.log(w), abs=1e-9)
    assert fit.residual_sd == pytest.approx(0.0, abs=1e-12)
    assert fit.outliers == ()
    assert fit.baseline == pytest.approx(w)


def test_strength_degree_quadratic_growth():
    # disjoint cliques K2/K3/K4 with edge weight d = clique size - 1 give
    # every node strength k^2/2, an exact log-log line of slope 2
    edges = {}
    for label, size in (("a", 2), ("b", 3), ("c", 4)):
        nodes = [f"{label}{i}" for i in range(size)]
        for i, u in enumerate(nodes):
            for v in nodes[i + 1:]:
                edges[(u, v)] = size - 1
                edges[(v, u)] = size - 1
    net = net_of(edges)
    fit = fit_strength_degree(compute_node_metrics(net))
    assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-6)
    assert fit.coefficients[1] == pytest.approx(math.log(0.5), abs=1e-6)


def test_strength_degree_needs_three_nodes():
    with pytest.raises(ValueError):
        fit_strength_degree(compute_node_metrics(net_of({("A", "B"): 1})))


def metric_row(label, degree, betweenness):
    return NodeMetrics(label, degree, 0, degree, -degree, degree, 0, degree, 0.0, betweenness, None)


def strength_row(label, degree, out_degree, strength, out_strength):
    return NodeMetrics(label, degree, degree - out_degree, out_degree, degree - 2 * out_degree,
                       strength, strength - out_strength, out_strength, 0.0, 0.0, None)


def test_strength_degree_reads_the_node_table_and_leaves_out_degree_zero():
    # strength 3 k^1.5 on the linked rows; the isolated row would make log(0) if it were fitted
    table = {
        "a": strength_row("a", 1, 1, 3, 3),
        "b": strength_row("b", 4, 2, 24, 10),
        "c": strength_row("c", 9, 5, 81, 40),
        "d": strength_row("d", 16, 8, 192, 100),
        "z": strength_row("z", 0, 0, 0, 0),
    }
    fit = fit_strength_degree(table)
    assert fit.kind == STRENGTH_DEGREE
    assert fit.coefficients[0] == pytest.approx(1.5, abs=1e-9)
    assert fit.coefficients[1] == pytest.approx(math.log(3), abs=1e-9)
    assert fit.residual_sd == pytest.approx(0.0, abs=1e-9)
    assert fit.baseline == (3 + 10 + 40 + 100) / (1 + 2 + 5 + 8)
    with pytest.raises(ValueError, match="need at least 3 nodes with degree >= 1"):
        fit_strength_degree({label: table[label] for label in ("a", "b", "z")})


def test_betweenness_degree_exact_quadratic():
    table = {f"n{k}": metric_row(f"n{k}", k, float(k * k)) for k in range(1, 8)}
    fit = fit_betweenness_degree(table)
    assert fit.kind == BETWEENNESS_DEGREE
    assert fit.coefficients[0] == pytest.approx(1.0, abs=1e-9)
    assert fit.coefficients[1] == pytest.approx(0.0, abs=1e-9)
    assert fit.coefficients[2] == pytest.approx(0.0, abs=1e-9)
    assert fit.outliers == ()


def test_betweenness_degree_equal_degrees_rank_deficient():
    table = {f"n{i}": metric_row(f"n{i}", 3, 0.1 * i) for i in range(5)}
    with pytest.raises(ValueError, match="rank"):
        fit_betweenness_degree(table)


def test_betweenness_degree_planted_outlier_is_flagged_alone():
    sigma = 0.005
    noise = [0.3, -0.5, 0.2, -0.1, 0.4, -0.3, 0.1, -0.2, 0.05, 4.0]
    table = {}
    for i, k in enumerate(range(1, 11)):
        value = 0.002 * k * k + 0.001 * k + 0.01 + sigma * noise[i]
        table[f"n{i:02d}"] = metric_row(f"n{i:02d}", k, value)
    fit = fit_betweenness_degree(table)
    assert [label for label, _ in fit.outliers] == ["n09"]
    assert fit.outliers[0][1] > 2.0


def test_betweenness_degree_needs_four_nodes():
    with pytest.raises(ValueError):
        fit_betweenness_degree({f"n{k}": metric_row(f"n{k}", k, 0.0) for k in range(3)})


def test_knn_degree_fit_on_star():
    net = net_of({("H", f"L{i}"): 1 for i in range(5)})
    fit = fit_knn_degree(knn(net)[1])
    assert fit.kind == KNN_DEGREE
    # curve points: (1, 5) for leaves and (5, 1) for the hub
    assert fit.coefficients[0] == pytest.approx(-1.0, abs=1e-9)
    assert fit.coefficients[1] == pytest.approx(6.0, abs=1e-9)


def test_knn_degree_fit_needs_two_degrees():
    ring = net_of({(f"n{i}", f"n{(i + 1) % 5}"): 1 for i in range(5)})
    with pytest.raises(ValueError):
        fit_knn_degree(knn(ring)[1])


def test_report_style_fixture_matches_node_metrics():
    net = net_of({("A", "B"): 2, ("B", "A"): 1, ("B", "C"): 3, ("C", "A"): 1, ("A", "D"): 1})
    table = compute_node_metrics(net)
    fit = fit_betweenness_degree(table)
    assert len(fit.coefficients) == 3
