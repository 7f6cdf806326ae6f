"""Degree-tail exponent fitting plus the strength, betweenness and k_nn regressions.

The tail model is the discrete power law p(x) ~ x^-gamma on integers
x >= xmin, normalized by the Hurwitz zeta function. gamma is the exact
maximum-likelihood estimate (Brent's method on the zeta log-likelihood,
warm-started from the continuous approximation); xmin is chosen by
scanning observed values for the smallest Kolmogorov-Smirnov distance
between the empirical tail CDF and the fitted model. Goodness of fit
uses the semi-parametric bootstrap: synthesize datasets from the fitted
model (empirical resampling below xmin), refit each with the same xmin
scan, and report the fraction of replicates whose KS distance reaches
the observed one.

The regressions read tables, never a network: strength and betweenness
against degree come from the node table of `metrics.compute_node_metrics`,
and k_nn against degree from the curve of `metrics.knn`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np
from scipy.special import zeta as hurwitz_zeta

from . import pool
from .metrics import NodeMetrics

SCAN = "scan"

STRENGTH_DEGREE = "strength-degree-powerlaw"
BETWEENNESS_DEGREE = "betweenness-degree-quadratic"
KNN_DEGREE = "knn-degree-linear"

_GAMMA_LO = 1.0 + 1e-6
_GAMMA_HI = 64.0
# The gamma solver's relative tolerance: Brent's floor, the square root of the float64 epsilon. Nearer
# the maximum the log-likelihood differences fall below float resolution, so smaller steps only add evaluations.
_GAMMA_RTOL = math.sqrt(np.finfo(float).eps)
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0  # the golden-section fraction of Brent's fallback steps
_DENSE_CAP = 8192
_CANDIDATE_CHUNK = 256
_TABLE_FLOOR = 1e-6
_TABLE_CAP = 1 << 21
_INT64_MAX = np.iinfo(np.int64).max
# the bootstrap interval's coverage and the studentized residual beyond which a regression flags an outlier
_CI_LEVEL = 0.95
_OUTLIER_THRESHOLD = 2.0
# a batched fit runs one `_mle_gamma` call per group of samples holding this many xmin candidates
_GROUP_CANDIDATES = 1 << 16
# Below this many drawn values (replicates × sample size) the bootstrap runs in
# this process: starting forked workers costs more than the refits save. On 2
# CPUs, 200 replicates broke even at a sample of about 100.
_POOL_MIN_DRAWS = 20_000


@dataclass(frozen=True)
class PowerLawFit:
    gamma: float
    xmin: int
    n_tail: int
    ks_stat: float
    xmin_policy: str = SCAN
    p_value: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    n_bootstrap: int = 0
    seed: int | None = None


class Outlier(NamedTuple):
    label: str
    studentized_residual: float


@dataclass(frozen=True)
class RegressionFit:
    kind: str
    coefficients: tuple[float, ...]
    baseline: float | None
    residual_sd: float
    outlier_threshold: float
    outliers: tuple[Outlier, ...]


def _prepare(samples: Iterable[int]) -> np.ndarray:
    # sorted() on an ndarray would box every element; np.sort gives the same array
    x = np.sort(np.asarray(samples if isinstance(samples, np.ndarray) else list(samples), dtype=np.int64))
    if len(x) == 0:
        raise ValueError("no samples")
    if x[0] < 1:
        raise ValueError("samples must be positive integers")
    return x


def _mle_gamma(n_tail: np.ndarray, log_sum: np.ndarray, xmin: np.ndarray) -> np.ndarray:
    """Maximize -n*log(zeta(g, xmin)) - g*log_sum per candidate, by Brent's method on [_GAMMA_LO, _GAMMA_HI].

    The log-likelihood is strictly concave in gamma, so its one maximum is
    the minimum of its negative, which each candidate finds on its own
    (Brent 1973, ch. 5: parabolic steps through the best three points, a
    golden-section step whenever the parabola is unsafe), started from the
    continuous estimate 1 + n / sum(ln(x / (xmin - 1/2))) of Clauset et al.
    (2009, eq. 3.7) clipped into the bracket, or from the golden point where
    that is not finite. It stops on Brent's rule at relative tolerance
    _GAMMA_RTOL, and the Hurwitz zeta is evaluated only on the candidates
    still running. Every step is elementwise, so each gamma has the bits of
    a call on its candidate alone.
    """
    gammas = np.empty(len(xmin))
    q = xmin.astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        start = 1.0 + n_tail / (log_sum - n_tail * np.log(q - 0.5))
    golden_point = _GAMMA_LO + _CGOLD * (_GAMMA_HI - _GAMMA_LO)
    x = np.where(np.isfinite(start), np.clip(start, _GAMMA_LO, _GAMMA_HI), golden_point)
    n, s, rows = n_tail, log_sum, np.arange(len(xmin))

    def cost(g: np.ndarray) -> np.ndarray:
        # past an xmin of about 65,000 the zeta underflows to 0 at large g; `_fit_group` drops such candidates
        with np.errstate(divide="ignore", invalid="ignore"):
            return n * np.log(hurwitz_zeta(g, q)) + g * s

    a = np.full(len(x), _GAMMA_LO)
    b = np.full(len(x), _GAMMA_HI)
    fx = cost(x)
    w, v, fw, fv = x, x, fx, fx
    d = e = np.zeros(len(x))  # the last step, and the one before it
    while len(rows):
        mid = 0.5 * (a + b)
        tol = _GAMMA_RTOL * x
        done = np.abs(x - mid) <= 2.0 * tol - 0.5 * (b - a)
        if done.any():
            gammas[rows[done]] = x[done]
            keep = ~done
            rows, n, s, q, a, b, x, w, v, fx, fw, fv, d, e, mid, tol = (
                array[keep] for array in (rows, n, s, q, a, b, x, w, v, fx, fw, fv, d, e, mid, tol))
        # the parabola through x, w and v has its vertex at x + p / r; an infinite cost makes it nan, and unsafe
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (x - w) * (fx - fv)
            r = (x - v) * (fx - fw)
            p = (x - v) * r - (x - w) * t
            r = 2.0 * (r - t)
            p = np.where(r > 0.0, -p, p)
            r = np.abs(r)
            step = p / r
        parabolic = ((np.abs(e) > tol) & (np.abs(p) < np.abs(0.5 * r * e))
                     & (p > r * (a - x)) & (p < r * (b - x)))
        # a parabolic step keeps 2*tol clear of the bracket ends
        cramped = (x + step - a < 2.0 * tol) | (b - x - step < 2.0 * tol)
        step = np.where(cramped, np.where(mid >= x, tol, -tol), step)
        golden = np.where(x >= mid, a - x, b - x)
        e = np.where(parabolic, d, golden)
        d = np.where(parabolic, step, _CGOLD * golden)
        # no two evaluations closer than tol
        u = x + np.where(np.abs(d) >= tol, d, np.where(d >= 0.0, tol, -tol))
        fu = cost(u)
        better = fu <= fx
        # of x and u, the better becomes x and the other a bracket end, then w or v if it beats them
        loser, f_loser = np.where(better, x, u), np.where(better, fx, fu)
        shift = better | (fu <= fw) | (w == x)
        replace_v = ~shift & ((fu <= fv) | (v == x) | (v == w))
        x, fx = np.where(better, u, x), np.where(better, fu, fx)
        a = np.where(loser < x, loser, a)
        b = np.where(loser < x, b, loser)
        v = np.where(shift, w, np.where(replace_v, loser, v))
        fv = np.where(shift, fw, np.where(replace_v, f_loser, fv))
        w, fw = np.where(shift, loser, w), np.where(shift, f_loser, fw)
    return gammas


def _zeta_at(gammas: np.ndarray, values: np.ndarray, csum: np.ndarray, norms: np.ndarray, xmin: np.ndarray) -> np.ndarray:
    """zeta(gamma_j, values_k + 1) for a chunk of candidates, shape (j, k).

    Uses zeta(g, u+1) = zeta(g, xmin) - sum_{i=xmin}^{u} i^-g, with the inner
    sums read from per-row cumulative power tables; values beyond the dense
    table fall back to direct Hurwitz zeta calls. Entries with values below
    a row's xmin are garbage and must be masked by the caller.
    """
    dense_limit = csum.shape[1]  # table covers integers 1..dense_limit
    inside = values <= dense_limit
    rows = np.arange(len(gammas))
    out = np.empty((len(gammas), len(values)))
    if inside.any():
        vi = values[inside].astype(np.int64)
        prefix_hi = csum[:, vi - 1]
        # sum over 1..xmin-1 = sum over 1..xmin minus xmin^-g (works for an xmin of 1)
        xm_idx = np.minimum(xmin.astype(np.int64), dense_limit) - 1
        prefix_lo = csum[rows, xm_idx] - np.exp(-gammas * np.log(xmin.astype(float)))
        out[:, inside] = norms[:, None] - (prefix_hi - prefix_lo[:, None])
    if (~inside).any():
        vo = values[~inside].astype(float)
        out[:, ~inside] = hurwitz_zeta(gammas[:, None], vo[None, :] + 1.0)
    return out


def _ks_distances(x: np.ndarray, uniq: np.ndarray, counts_le: np.ndarray,
                  xmin: np.ndarray, first_idx: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """KS distance per (xmin, gamma) candidate against the empirical tail CDF."""
    n = len(x)
    n_tail = (n - first_idx).astype(float)
    dense_limit = int(min(uniq[-1], _DENSE_CAP))
    log_ints = np.log(np.arange(1, dense_limit + 1, dtype=float))

    ks = np.empty(len(xmin))
    for start in range(0, len(xmin), _CANDIDATE_CHUNK):
        stop = min(start + _CANDIDATE_CHUNK, len(xmin))
        g = gammas[start:stop]
        xm = xmin[start:stop]
        csum = np.cumsum(np.exp(-g[:, None] * log_ints[None, :]), axis=1)
        norms = hurwitz_zeta(g, xm.astype(float))
        z = _zeta_at(g, uniq, csum, norms, xm)
        with np.errstate(divide="ignore", invalid="ignore"):
            model_cdf = 1.0 - z / norms[:, None]  # nan where the zeta underflowed to 0
        emp_cdf = (counts_le[None, :] - first_idx[start:stop, None]) / n_tail[start:stop, None]
        diff = np.abs(emp_cdf - model_cdf)
        diff[uniq[None, :] < xm[:, None]] = -np.inf
        ks[start:stop] = diff.max(axis=1)
    return ks


class _Candidates(NamedTuple):
    """A sample prepared for the fit, with its xmin candidates.

    `cand` holds every observed value but the largest; `cand_first` is the
    index of each one's first occurrence in the sorted sample `x`, and
    `log_sum` the sum of logs of its tail.
    """

    x: np.ndarray
    uniq: np.ndarray
    counts_le: np.ndarray
    cand: np.ndarray
    cand_first: np.ndarray
    log_sum: np.ndarray


def _candidates(samples: Iterable[int]) -> _Candidates:
    """The sample prepared and checked as `fit_tail` does, raising its ValueErrors."""
    x = _prepare(samples)
    uniq, first_idx = np.unique(x, return_index=True)
    if len(uniq) < 2:
        raise ValueError("degenerate tail: fewer than 2 distinct values")
    suffix_log_sum = np.cumsum(np.log(x.astype(float))[::-1])[::-1]
    counts_le = np.searchsorted(x, uniq, side="right")
    cand_first = first_idx[:-1]
    return _Candidates(x, uniq, counts_le, uniq[:-1], cand_first, suffix_log_sum[cand_first])


def _fit_group(group: list[_Candidates]) -> list[PowerLawFit | ValueError]:
    """Fit prepared samples; the gamma solver runs on all their candidates in one `_mle_gamma` call.

    `_mle_gamma` works elementwise, so every gamma has the bits it would
    have in a call of its own sample's candidates alone. A candidate whose
    KS distance is not finite is passed over, and a sample with no other
    candidate gives a ValueError.
    """
    n_tails = [(len(setup.x) - setup.cand_first).astype(float) for setup in group]
    gammas = _mle_gamma(np.concatenate(n_tails), np.concatenate([setup.log_sum for setup in group]),
                        np.concatenate([setup.cand for setup in group]))
    fits = []
    start = 0
    for setup, n_tail in zip(group, n_tails):
        sample_gammas = gammas[start:start + len(setup.cand)]
        start += len(setup.cand)
        ks = _ks_distances(setup.x, setup.uniq, setup.counts_le, setup.cand, setup.cand_first, sample_gammas)
        finite = np.isfinite(ks)
        if not finite.any():
            fits.append(ValueError("no xmin candidate has a finite KS distance"))
            continue
        best = int(np.argmin(np.where(finite, ks, np.inf)))  # argmin keeps the first (smallest) xmin on ties
        # gamma, xmin, n_tail and the KS distance of the best candidate
        fits.append(PowerLawFit(float(sample_gammas[best]), int(setup.cand[best]), int(n_tail[best]),
                                float(ks[best])))
    return fits


def _fit_tails(samples: Iterable[Iterable[int]]) -> list[PowerLawFit | ValueError]:
    """`fit_tail` of each sample, in order; a sample it cannot fit gives the ValueError it raises.

    Samples are prepared and checked one at a time, and fitted in groups
    that close once they hold _GROUP_CANDIDATES xmin candidates, so memory
    stays bounded however many samples come in.
    """
    results: list[PowerLawFit | ValueError | None] = []
    waiting: list[int] = []  # positions in results of the open group's samples
    group: list[_Candidates] = []
    held = 0
    for sample in samples:
        try:
            setup = _candidates(sample)
        except ValueError as exc:
            results.append(exc)
            continue
        waiting.append(len(results))
        results.append(None)
        group.append(setup)
        held += len(setup.cand)
        if held >= _GROUP_CANDIDATES:
            for position, fit in zip(waiting, _fit_group(group)):
                results[position] = fit
            waiting, group, held = [], [], 0
    if group:
        for position, fit in zip(waiting, _fit_group(group)):
            results[position] = fit
    return results


def fit_tail(samples: Iterable[int]) -> PowerLawFit:
    """Fit the discrete power-law tail, scanning every observed value but the largest for xmin.

    The chosen xmin minimizes the KS distance, with ties broken toward the
    smaller xmin. Raises ValueError when the sample holds fewer than two
    distinct values, or when no candidate has a finite KS distance.
    """
    (fit,) = _fit_tails([samples])
    if isinstance(fit, ValueError):
        raise fit
    return fit


def _inverse_cdf(gamma: float, xmin: int) -> tuple[float, np.ndarray]:
    """The Hurwitz-zeta norm and the negated CCDF table that `sample_tail` searches.

    Entry i of the table is -P(X >= xmin+i+1); it is extended until the CCDF
    falls to _TABLE_FLOOR or the table reaches _TABLE_CAP entries.
    """
    norm = float(hurwitz_zeta(gamma, xmin))
    length = 1024
    while True:
        ints = np.arange(xmin, xmin + length, dtype=float)
        ccdf = 1.0 - np.cumsum(ints ** -gamma) / norm
        if ccdf[-1] <= _TABLE_FLOOR or length >= _TABLE_CAP:
            break
        length *= 2
    return norm, -ccdf


def sample_tail(gamma: float, xmin: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF samples from the fitted discrete power law.

    A cumulative table covers the bulk of the distribution; draws deeper in
    the tail fall back to bisection on the Hurwitz-zeta CCDF.
    """
    return _draw_tail(gamma, xmin, _inverse_cdf(gamma, xmin), size, rng)


def _draw_tail(gamma: float, xmin: int, table: tuple[float, np.ndarray], size: int,
               rng: np.random.Generator) -> np.ndarray:
    """`sample_tail` with the `_inverse_cdf(gamma, xmin)` table already built."""
    norm, neg_ccdf = table
    w = 1.0 - rng.random(size)  # in (0, 1]
    idx = np.searchsorted(neg_ccdf, -w, side="left")
    out = xmin + idx
    deep = idx >= len(neg_ccdf)
    if deep.any():
        out[deep] = _bisect_tail(gamma, xmin + len(neg_ccdf), norm, w[deep])
    return out.astype(np.int64)


def _bisect_tail(gamma: float, start: int, norm: float, w: np.ndarray) -> np.ndarray:
    lo = np.full(len(w), start, dtype=np.int64)
    hi = lo.copy()
    while True:
        grow = hurwitz_zeta(gamma, hi + 1.0) / norm > w
        if not grow.any():
            break
        if (hi[grow] == _INT64_MAX).any():
            raise ValueError(f"a power-law draw with gamma={gamma} exceeds the int64 range")
        hi[grow] = np.minimum(hi[grow], _INT64_MAX // 2) * 2 + 1  # (MAX // 2) * 2 + 1 == MAX: saturates, never wraps
    while np.any(hi > lo):
        mid = lo + (hi - lo) // 2  # (lo + hi) // 2 without overflow
        go_up = hurwitz_zeta(gamma, mid + 1.0) / norm > w
        lo = np.where(go_up, mid + 1, lo)
        hi = np.where(go_up, hi, mid)
    return lo


def _replicate_rng(seed: int, op_tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, op_tag, index)))


def _refits(block, args: tuple, n_boot: int, size: int) -> list[PowerLawFit]:
    """The refits that `block(*args, indices)` makes of n_boot replicates of `size` values, failures left out.

    A small bootstrap runs as one block in this process, a larger one on
    `pool.map_blocks`. More than 10% failed refits is an error.
    """
    if n_boot * size < _POOL_MIN_DRAWS:
        results = block(*args, range(n_boot))
    else:
        results = pool.map_blocks(block, args, n_boot)
    refits = [refit for refit in results if not isinstance(refit, ValueError)]
    failed = n_boot - len(refits)
    if failed > 0.1 * n_boot:
        raise ValueError(f"{failed}/{n_boot} bootstrap replicates failed to refit")
    return refits


def _gof_block(fit: PowerLawFit, below: np.ndarray, n: int, table: tuple[float, np.ndarray], seed: int,
               block: range) -> list[PowerLawFit | ValueError]:
    """`_fit_tails` of the block's goodness-of-fit replicates."""
    p_below = len(below) / n

    def replicates():
        for i in block:
            rng = _replicate_rng(seed, 1, i)
            n_below = rng.binomial(n, p_below) if len(below) else 0
            parts = []
            if n_below:
                parts.append(rng.choice(below, size=n_below, replace=True))
            if n - n_below:
                parts.append(_draw_tail(fit.gamma, fit.xmin, table, n - n_below, rng))
            yield np.concatenate(parts)

    return _fit_tails(replicates())


def gof_pvalue(fit: PowerLawFit, samples: Iterable[int], n_boot: int, seed: int) -> float:
    """Semi-parametric bootstrap p-value for the fitted tail model.

    p is the fraction of synthetic replicates whose refit KS distance is at
    least the observed one; deterministic given the seed. Replicates that
    fail to refit are excluded; more than 10% failures is an error. Each
    replicate draws from its own seed, so p does not depend on the number
    of workers.
    """
    if n_boot < 1:
        raise ValueError("n_boot must be >= 1")
    x = _prepare(samples)
    table = _inverse_cdf(fit.gamma, fit.xmin)
    refits = _refits(_gof_block, (fit, x[x < fit.xmin], len(x), table, seed), n_boot, len(x))
    return sum(1 for refit in refits if refit.ks_stat >= fit.ks_stat) / len(refits)


def _ci_block(x: np.ndarray, seed: int, block: range) -> list[PowerLawFit | ValueError]:
    """`_fit_tails` of the block's resampling replicates."""
    return _fit_tails(x[_replicate_rng(seed, 2, i).integers(0, len(x), size=len(x))] for i in block)


def bootstrap_ci(samples: Iterable[int], n_boot: int, seed: int) -> tuple[float, float]:
    """Nonparametric 95% percentile interval for gamma under resample-and-refit."""
    if n_boot < 1:
        raise ValueError("n_boot must be >= 1")
    x = _prepare(samples)
    return _bootstrap_ci(x, fit_tail(x), n_boot, seed)


def _bootstrap_ci(x: np.ndarray, reference: PowerLawFit, n_boot: int, seed: int) -> tuple[float, float]:
    """`bootstrap_ci` of the prepared sample x, whose fit `reference` already is."""
    refits = _refits(_ci_block, (x, seed), n_boot, len(x))
    alpha = (1.0 - _CI_LEVEL) / 2.0
    lo, hi = np.quantile(np.asarray([refit.gamma for refit in refits]), [alpha, 1.0 - alpha])
    # the interval always brackets the point estimate
    return min(float(lo), reference.gamma), max(float(hi), reference.gamma)


def analyze_tail(samples: Iterable[int], n_boot: int, seed: int) -> PowerLawFit:
    """Scan-fit the tail and, when n_boot > 0, attach p-value and CI; n_boot = 0 skips them."""
    import dataclasses

    if n_boot < 0:
        raise ValueError(f"n_boot must be >= 0, got {n_boot}")
    x = _prepare(samples)
    fit = fit_tail(x)
    if n_boot == 0:
        return dataclasses.replace(fit, seed=seed)
    p = gof_pvalue(fit, x, n_boot, seed)
    lo, hi = _bootstrap_ci(x, fit, n_boot, seed)
    return dataclasses.replace(fit, p_value=p, ci_low=lo, ci_high=hi, n_bootstrap=n_boot, seed=seed)


def _ols_outliers(design: np.ndarray, y: np.ndarray, labels: list[str]) -> tuple[np.ndarray, float, tuple[Outlier, ...]]:
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    dof = len(y) - design.shape[1]
    if dof <= 0:
        return coef, 0.0, ()
    sigma = math.sqrt(float(resid @ resid) / dof)
    if sigma < 1e-12:
        return coef, sigma, ()
    # hat-matrix diagonal for internally studentized residuals
    gram_inv = np.linalg.pinv(design.T @ design)
    leverage = np.einsum("ij,jk,ik->i", design, gram_inv, design)
    scale = sigma * np.sqrt(np.clip(1.0 - leverage, 1e-12, None))
    studentized = resid / scale
    flagged = [
        Outlier(labels[i], float(studentized[i]))
        for i in range(len(labels))
        if abs(studentized[i]) > _OUTLIER_THRESHOLD
    ]
    flagged.sort(key=lambda item: (-abs(item[1]), item[0]))
    return coef, sigma, tuple(flagged)


def fit_strength_degree(node_metrics: Mapping[str, NodeMetrics]) -> RegressionFit:
    """OLS of ln(strength) on ln(degree) over the nodes of degree >= 1; the slope is the growth exponent.

    The baseline records the mean edge weight, i.e. the strength a node
    would have if weights were uncorrelated with degree (s = w_mean * k).
    """
    labels = [label for label in sorted(node_metrics) if node_metrics[label].degree >= 1]
    if len(labels) < 3:
        raise ValueError("need at least 3 nodes with degree >= 1")
    k = np.array([node_metrics[label].degree for label in labels], dtype=float)
    s = np.array([node_metrics[label].strength for label in labels], dtype=float)
    design = np.column_stack([np.log(k), np.ones(len(k))])
    coef, sigma, outliers = _ols_outliers(design, np.log(s), labels)
    # total weight over edge count: each edge is one out-degree and its weight one out-strength
    rows = node_metrics.values()
    baseline = sum(m.out_strength for m in rows) / sum(m.out_degree for m in rows)
    return RegressionFit(STRENGTH_DEGREE, (float(coef[0]), float(coef[1])), baseline,
                         sigma, _OUTLIER_THRESHOLD, outliers)


def fit_betweenness_degree(node_metrics: Mapping[str, NodeMetrics]) -> RegressionFit:
    """Quadratic fit of betweenness on degree with studentized outlier flags.

    Positive residuals mark nodes with more betweenness than their degree
    predicts (bottleneck-like), negative ones the opposite.
    """
    labels = sorted(node_metrics)
    if len(labels) < 4:
        raise ValueError("need at least 4 nodes")
    k = np.array([node_metrics[label].degree for label in labels], dtype=float)
    b = np.array([node_metrics[label].betweenness for label in labels], dtype=float)
    design = np.column_stack([k**2, k, np.ones(len(k))])
    if np.linalg.matrix_rank(design) < 3:
        raise ValueError("rank-deficient design: degrees span fewer than 3 values")
    coef, sigma, outliers = _ols_outliers(design, b, labels)
    return RegressionFit(BETWEENNESS_DEGREE, tuple(float(c) for c in coef), None,
                         sigma, _OUTLIER_THRESHOLD, outliers)


def fit_knn_degree(curve: Mapping[int, float]) -> RegressionFit:
    """Linear fit through the k_nn(k) curve points of `metrics.knn`, degree -> mean k_nn."""
    if len(curve) < 2:
        raise ValueError("need at least 2 distinct degrees in the k_nn curve")
    labels = [f"k={k}" for k in curve]
    k = np.array(list(curve.keys()), dtype=float)
    v = np.array(list(curve.values()), dtype=float)
    design = np.column_stack([k, np.ones(len(k))])
    coef, sigma, outliers = _ols_outliers(design, v, labels)
    return RegressionFit(KNN_DEGREE, (float(coef[0]), float(coef[1])), None,
                         sigma, _OUTLIER_THRESHOLD, outliers)
