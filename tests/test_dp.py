import math

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import chisquare

from dpsc.dp import (
    GammaPrior,
    ObservationPair,
    appropriateness_curve,
    crp_sample,
    estimate_precision,
    expected_clusters,
    sample_precision_multi,
    sample_precision_single,
)
from dpsc.errors import ConfigError, DomainError


def precision_posterior_grid(prior, pairs, hi=50.0, points=20000):
    """Posterior mean of alpha on a dense grid: prior x prod_m of the
    cluster-count likelihood alpha^k Gamma(alpha)/Gamma(alpha+n)."""
    grid = np.linspace(1e-4, hi, points)
    logd = (prior.shape - 1.0) * np.log(grid) - prior.rate * grid
    for n, k in pairs:
        logd += k * np.log(grid) + gammaln(grid) - gammaln(grid + n)
    w = np.exp(logd - logd.max())
    return float((grid * w).sum() / w.sum()), grid, w


# ----------------------------------------------------------------- CRP


def test_crp_limits():
    rng = np.random.default_rng(0)
    assert crp_sample(1e-9, 10, rng).n_clusters == 1
    assert crp_sample(1e9, 10, rng).n_clusters == 10


def test_expected_clusters_exact_values():
    mean, std = expected_clusters(2.7, 1)
    assert (mean, std) == (1.0, 0.0)
    mean, _ = expected_clusters(1.0, 3)
    assert mean == pytest.approx(11 / 6)


def test_expected_clusters_monotone():
    last = 0.0
    for n in (1, 2, 5, 20, 100):
        mean, _ = expected_clusters(1.0, n)
        assert mean > last
        last = mean
    means = [expected_clusters(a, 50)[0] for a in (0.2, 0.5, 1.0, 3.0, 10.0)]
    assert all(m2 > m1 for m1, m2 in zip(means, means[1:]))


def test_crp_moments_match_monte_carlo():
    rng = np.random.default_rng(42)
    alpha, n, draws = 1.0, 200, 8000
    counts = np.array([crp_sample(alpha, n, rng).n_clusters for _ in range(draws)])
    mean, std = expected_clusters(alpha, n)
    assert counts.mean() == pytest.approx(mean, rel=0.02)
    assert counts.std() == pytest.approx(std, rel=0.05)


# ------------------------------------------------------------- Antoniak


def test_antoniak_ratio_matches_crp_frequencies():
    n, k = 6, 3
    a1, a2 = 0.5, 2.0
    rng = np.random.default_rng(11)
    draws = 150_000
    f1 = np.mean([crp_sample(a1, n, rng).n_clusters == k for _ in range(draws)])
    f2 = np.mean([crp_sample(a2, n, rng).n_clusters == k for _ in range(draws)])
    # Antoniak: log p(k | alpha, n) = k log alpha + lgamma(alpha) - lgamma(alpha + n)
    # plus an alpha-free Stirling-number term, which cancels in the ratio.
    def log_prior(alpha):
        return k * math.log(alpha) + math.lgamma(alpha) - math.lgamma(alpha + n)

    predicted = math.exp(log_prior(a1) - log_prior(a2))
    assert f1 / f2 == pytest.approx(predicted, rel=0.05)


# ------------------------------------------------- precision resampling


def test_single_pair_chain_matches_grid_posterior():
    prior = GammaPrior(shape=1.0, scale=1.0)
    n, k = 50, 5
    target, _, _ = precision_posterior_grid(prior, [(n, k)])
    rng = np.random.default_rng(3)
    alpha, total = 1.0, 0.0
    draws = 20_000
    for _ in range(draws):
        alpha = sample_precision_single(alpha, n, k, prior, rng)
        total += alpha
    assert total / draws == pytest.approx(target, rel=0.05)
    assert alpha > 0


def test_multi_reduces_to_single_for_one_pair():
    prior = GammaPrior(shape=3.0, scale=1.0)
    n, k = 50, 5
    rng = np.random.default_rng(5)
    draws = 8000
    a = 1.0
    mean_single = np.mean(
        [a := sample_precision_single(a, n, k, prior, rng) for _ in range(draws)]
    )
    b = 1.0
    pair = [ObservationPair(n, k)]
    mean_multi = np.mean(
        [b := sample_precision_multi(b, pair, prior, rng) for _ in range(draws)]
    )
    assert mean_multi == pytest.approx(mean_single, rel=0.03)


def test_multi_pair_chain_matches_grid_posterior():
    prior = GammaPrior(shape=5.0, scale=1.0)
    pairs = [ObservationPair(10, 3), ObservationPair(20, 5), ObservationPair(15, 4)]
    target, _, _ = precision_posterior_grid(prior, [(p.n, p.k) for p in pairs])
    rng = np.random.default_rng(7)
    alpha, total = 1.0, 0.0
    draws = 8000
    for _ in range(draws):
        alpha = sample_precision_multi(alpha, pairs, prior, rng)
        total += alpha
    assert total / draws == pytest.approx(target, rel=0.05)


def test_multi_shape_guard():
    # a - M - 1 + sum(k) must stay positive; here it is 1 - 3 - 1 + 3 = 0.
    prior = GammaPrior(shape=1.0, scale=1.0)
    pairs = [ObservationPair(5, 1)] * 3
    with pytest.raises(ConfigError, match="raise the prior shape"):
        sample_precision_multi(1.0, pairs, prior, np.random.default_rng(0))


def test_all_singleton_counts_pull_alpha_up():
    # k = n = 20 keeps the posterior well above the prior mean.
    prior = GammaPrior(shape=1.0, scale=1.0)
    rng = np.random.default_rng(9)
    a = 1.0
    vals = [a := sample_precision_single(a, 20, 20, prior, rng) for _ in range(4000)]
    assert np.mean(vals) > 3.0
    assert min(vals) > 0


def test_one_sweep_preserves_grid_posterior():
    # Chi-squared check: start draws at exact posterior samples, apply one
    # refresh, and compare the output histogram against the posterior.
    prior = GammaPrior(shape=5.0, scale=1.0)
    pairs = [ObservationPair(10, 3), ObservationPair(20, 5), ObservationPair(15, 4)]
    _, grid, w = precision_posterior_grid(prior, [(p.n, p.k) for p in pairs], hi=20.0)
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    rng = np.random.default_rng(13)
    trials = 6000
    starts = np.interp(rng.random(trials), cdf, grid)
    outs = np.array(
        [sample_precision_multi(a0, pairs, prior, rng) for a0 in starts]
    )
    edges = np.interp(np.linspace(0.1, 0.9, 9), cdf, grid)
    expected = np.diff(np.concatenate([[0.0], np.interp(edges, grid, cdf), [1.0]]))
    observed = np.histogram(outs, np.concatenate([[0.0], edges, [np.inf]]))[0]
    stat = chisquare(observed, expected * trials)
    assert stat.pvalue > 0.01


# --------------------------------------------------- appropriateness


def test_appropriateness_curve_boundaries():
    rng = np.random.default_rng(1)
    pool = crp_sample(2.0, 300, rng)
    assert pool.n_clusters >= 3
    curve = appropriateness_curve([pool], [1, 300], 50, GammaPrior(), rng)
    assert curve.dp_mean[0] == pytest.approx(1.0)
    assert curve.dp_std[0] == 0.0
    assert curve.empirical_mean[0] == 1.0
    assert curve.empirical_std[0] == 0.0
    assert curve.empirical_mean[1] == pool.n_clusters
    assert curve.empirical_std[1] == 0.0
    with pytest.raises(DomainError):
        appropriateness_curve([pool], [301], 10, GammaPrior(), rng)


def test_appropriateness_self_consistency_on_crp_pool():
    rng = np.random.default_rng(2)
    pool = crp_sample(2.0, 400, rng)
    ns = [5, 25, 60, 120, 200, 300, 400]
    curve = appropriateness_curve([pool], ns, 150, GammaPrior(), rng)
    for j in range(len(ns)):
        band = 2.0 * max(curve.dp_std[j], 1e-9)
        assert abs(curve.dp_mean[j] - curve.empirical_mean[j]) <= band + 1e-9


def test_estimate_precision_tracks_truth():
    rng = np.random.default_rng(4)
    pools = [crp_sample(2.0, 500, rng) for _ in range(4)]
    pairs = [ObservationPair(p.n_items, p.n_clusters) for p in pools]
    est = estimate_precision(pairs, GammaPrior(shape=2.0, scale=1.0), rng, draws=1500)
    assert 1.0 < est < 4.0
