"""The blocked tail bootstrap against the one-replicate-at-a-time loops it replaced.

Replicates are drawn from their own seeds and refit in blocks, with one
golden section per group of samples, serially or across forked workers. The
p-value, the interval and every failure must come out exactly as the loops
in `oracles` give them.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ref_bootstrap_ci, ref_gof_pvalue
from wardflow import pool, powerlaw
from wardflow.powerlaw import FIXED, SCAN, analyze_tail, bootstrap_ci, fit_tail, gof_pvalue, sample_tail


@pytest.fixture(autouse=True)
def pool_every_bootstrap(monkeypatch):
    """These samples are small; without this the 2-worker cases would never reach the pool."""
    monkeypatch.setattr(powerlaw, "_POOL_MIN_DRAWS", 0)


def outcome(call):
    """The call's value, or the message of the ValueError it raises."""
    try:
        return call()
    except ValueError as exc:
        return ("ValueError", str(exc))


# small samples of few distinct values, so that some replicates fail to refit
small_samples = st.lists(st.integers(1, 12), min_size=3, max_size=30)


@st.composite
def bootstrap_cases(draw):
    samples = draw(small_samples)
    policy = draw(st.sampled_from([SCAN, FIXED]))
    xmin = draw(st.sampled_from(sorted(set(samples)))) if policy == FIXED else None
    return samples, xmin, draw(st.integers(1, 20)), draw(st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("workers", [1, 2])
@given(case=bootstrap_cases())
@settings(max_examples=25, deadline=None)
def test_blocked_bootstrap_equals_the_replicate_loop(workers, case):
    samples, xmin, n_boot, seed = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pool, "_worker_count", lambda tasks: min(workers, tasks))
        ci = outcome(lambda: bootstrap_ci(samples, n_boot, seed, xmin=xmin))
        fit = outcome(lambda: fit_tail(samples, xmin=xmin))
        p = outcome(lambda: gof_pvalue(fit, samples, n_boot, seed)) if isinstance(fit, powerlaw.PowerLawFit) else None
    assert ci == outcome(lambda: ref_bootstrap_ci(samples, n_boot, seed, xmin=xmin))
    if p is not None:
        assert p == outcome(lambda: ref_gof_pvalue(fit, samples, n_boot, seed))


@pytest.mark.parametrize("workers", [1, 2])
def test_failures_are_counted_as_in_the_loop(workers, monkeypatch):
    monkeypatch.setattr(pool, "_worker_count", lambda tasks: workers)
    # a few resamples of these draw one distinct value and cannot be refit
    assert bootstrap_ci([2, 2, 3, 4], 40, 1) == ref_bootstrap_ci([2, 2, 3, 4], 40, 1)
    with pytest.raises(ValueError, match="bootstrap replicates failed to refit") as loop:
        ref_bootstrap_ci([1, 5, 5, 5], 40, 1)
    message = str(loop.value)
    with pytest.raises(ValueError) as blocked:
        bootstrap_ci([1, 5, 5, 5], 40, 1)
    assert str(blocked.value) == message


def test_paper_scale_bootstrap_equals_the_loop(monkeypatch):
    samples = sample_tail(2.6, 2, 600, np.random.default_rng(11))
    fit = fit_tail(samples)
    for workers in (1, 2):
        monkeypatch.setattr(pool, "_worker_count", lambda tasks: min(workers, tasks))
        assert gof_pvalue(fit, samples, 24, 3) == ref_gof_pvalue(fit, samples, 24, 3)
        assert bootstrap_ci(samples, 24, 3) == ref_bootstrap_ci(samples, 24, 3)


@pytest.mark.parametrize("group", [1, 5, 1 << 16])
@given(samples=st.lists(small_samples, max_size=12), fixed=st.integers(1, 12) | st.none())
@settings(max_examples=60, deadline=None)
def test_batched_fitter_equals_fit_tail_per_sample(group, samples, fixed):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(powerlaw, "_GROUP_CANDIDATES", group)
        batched = [("ValueError", str(fit)) if isinstance(fit, ValueError) else fit
                   for fit in powerlaw._fit_tails(iter(samples), fixed)]
    assert batched == [outcome(lambda: fit_tail(sample, xmin=fixed)) for sample in samples]


def test_batched_fitter_equals_fit_tail_on_large_samples():
    rng = np.random.default_rng(2)
    samples = [sample_tail(gamma, 1, 3000, rng) for gamma in (2.5, 3.5, 2.5, 3.5)]
    assert powerlaw._fit_tails(samples) == [fit_tail(sample) for sample in samples]
    assert powerlaw._fit_tails(samples, 3) == [fit_tail(sample, xmin=3) for sample in samples]


def test_sampler_table_built_once_draws_what_sample_tail_draws():
    table = powerlaw._inverse_cdf(1.3, 3)  # shallow enough for draws beyond the table
    for seed in range(3):
        drawn = powerlaw._draw_tail(1.3, 3, table, 5000, np.random.default_rng(seed))
        assert (drawn == sample_tail(1.3, 3, 5000, np.random.default_rng(seed))).all()
        assert drawn.max() >= 3 + len(table[1])


def test_analyze_tail_fits_the_observed_sample_once(monkeypatch):
    samples = sample_tail(2.8, 1, 400, np.random.default_rng(6))
    expected = analyze_tail(samples, n_boot=12, seed=7)
    calls = []
    original = powerlaw.fit_tail

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(powerlaw, "fit_tail", counting)
    assert analyze_tail(samples, n_boot=12, seed=7) == expected
    assert len(calls) == 1
    lo, hi = ref_bootstrap_ci(samples, 12, 7)
    assert (expected.ci_low, expected.ci_high) == (lo, hi)
    assert expected.p_value == ref_gof_pvalue(fit_tail(samples), samples, 12, 7)


@pytest.mark.parametrize("n_boot, pooled", [(10, False), (11, True)])
def test_a_small_bootstrap_runs_in_this_process(monkeypatch, n_boot, pooled):
    """Below the floor of replicates × sample size the blocks skip the pool; the values do not change."""
    samples = [1, 1, 2, 2, 3, 4, 5, 7, 9, 12]
    fit = fit_tail(samples)
    expected = (gof_pvalue(fit, samples, n_boot, 5), bootstrap_ci(samples, n_boot, 5))
    monkeypatch.setattr(powerlaw, "_POOL_MIN_DRAWS", 101)  # 10 replicates of 10 values stay below it
    calls = []
    original = pool.map_blocks

    def counting(*args):
        calls.append(args[2])
        return original(*args)

    monkeypatch.setattr(pool, "map_blocks", counting)
    monkeypatch.setattr(pool, "_worker_count", lambda tasks: min(2, tasks))
    assert (gof_pvalue(fit, samples, n_boot, 5), bootstrap_ci(samples, n_boot, 5)) == expected
    assert calls == ([n_boot, n_boot] if pooled else [])
