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
    precision_mixture,
    sample_precision_multi,
    sample_precision_single,
)
from dpsc.errors import DomainError

from oracles import precision_mixture_enumeration, sample_precision_multi_reference


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


def test_expected_clusters_finite_at_tiny_alpha():
    # alpha + (i - 1) is alpha, not 0, at i = 1 however small alpha is.
    mean, std = expected_clusters(2e-300, 3)
    assert math.isfinite(mean) and math.isfinite(std)
    assert mean == pytest.approx(1.0)


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
    # The [(5, 1)] x 3 cases have a - M - 1 + sum(k) = 0 and 0.5: every
    # gamma shape s0 + S >= a is still positive, and the chain is unbiased.
    cases = [
        (5.0, [(10, 3), (20, 5), (15, 4)]),
        (1.0, [(5, 1)] * 3),
        (1.5, [(5, 1)] * 3),
    ]
    rng = np.random.default_rng(7)
    draws = 20_000
    for shape, nk in cases:
        prior = GammaPrior(shape=shape, scale=1.0)
        pairs = [ObservationPair(n, k) for n, k in nk]
        target, _, _ = precision_posterior_grid(prior, nk, hi=20.0, points=200_000)
        alpha, total = 1.0, 0.0
        for _ in range(draws):
            alpha = sample_precision_multi(alpha, pairs, prior, rng)
            total += alpha
        assert total / draws == pytest.approx(target, rel=0.03), (shape, nk)


def test_multi_shape_guard():
    # a - M - 1 + sum(k) = 1 - 3 - 1 + 3 = 0 used to be rejected, but every
    # gamma shape of the mixture is s0 + S >= a > 0: the draw is defined.
    prior = GammaPrior(shape=1.0, scale=1.0)
    pairs = [ObservationPair(5, 1)] * 3
    shapes, weights = precision_mixture(pairs, prior, prior.rate)
    assert shapes.min() == pytest.approx(prior.shape)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert (weights >= 0).all()
    rng = np.random.default_rng(0)
    alpha = 1.0
    for _ in range(200):
        alpha = sample_precision_multi(alpha, pairs, prior, rng)
        assert np.isfinite(alpha) and alpha > 0


def test_mixture_weights_match_enumeration():
    rng = np.random.default_rng(21)
    for m in range(1, 13):
        for _ in range(5):
            ns = rng.integers(1, 200, size=m)
            pairs = [ObservationPair(int(n), int(rng.integers(1, n + 1))) for n in ns]
            prior = GammaPrior(shape=float(rng.uniform(0.2, 4.0)), scale=1.0)
            rate = prior.rate + float(rng.exponential(10.0))
            shapes, weights = precision_mixture(pairs, prior, rate)
            want = precision_mixture_enumeration([(p.n, p.k) for p in pairs], prior.shape, rate)
            np.testing.assert_allclose(weights, want, rtol=1e-9, atol=1e-14)
            s0 = prior.shape + (sum(p.k for p in pairs) - m)  # the integer part first, as dp.py
            np.testing.assert_array_equal(shapes, s0 + np.arange(m + 1))
            assert shapes[0] >= prior.shape


def reference_stream_cases():
    """(shape, scale, [(n, k), ...]) cases for the reference-stream test:
    M in {1, 2, 3, 6, 8, 30} with pool sizes up to 10 and up to 10^6,
    log-uniform prior shapes in [0.05, 5] and scales in [0.01, 30], then
    pools of one class each, pools of singletons, and a mix of both."""
    g = np.random.default_rng(31)
    for m in (1, 2, 3, 6, 8, 30):
        for top in (10, 10**6):
            nk = [(int(n), int(g.integers(1, n + 1))) for n in g.integers(1, top + 1, m)]
            shape, scale = np.exp(g.uniform(np.log([0.05, 0.01]), np.log([5.0, 30.0])))
            yield float(shape), float(scale), nk
    yield 1.0, 1.0, [(n, 1) for n in (1, 7, 50, 10**6)]
    yield 0.5, 2.0, [(n, n) for n in (1, 3, 40, 999)]
    yield 2.0, 0.1, [(10**6, 10**6), (10**6, 1), (5, 5)]


def test_multi_refresh_matches_reference_stream():
    # Integer symmetric sums, scalar betas and a bisected running sum draw
    # the same alpha chain as the first numpy form, value for value.
    for seed, (shape, scale, nk) in enumerate(reference_stream_cases()):
        prior = GammaPrior(shape=shape, scale=scale)
        pairs = [ObservationPair(n, k) for n, k in nk]
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        alpha = ref = prior.mean
        for t in range(1000):
            alpha = sample_precision_multi(alpha, pairs, prior, rng)
            ref = sample_precision_multi_reference(ref, nk, prior.shape, prior.rate, ref_rng)
            assert alpha == ref, (seed, shape, scale, nk, t)


@pytest.mark.parametrize("alpha_old", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_refreshes_reject_non_finite_or_non_positive_alpha_old(alpha_old):
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError, match="alpha_old"):
        sample_precision_single(alpha_old, 10, 2, GammaPrior(), rng)
    with pytest.raises(DomainError, match="alpha_old"):
        sample_precision_multi(alpha_old, [ObservationPair(10, 2)], GammaPrior(), rng)


@pytest.mark.parametrize("n, k", [(5.5, 2), (5, 1.5), (5.0, 2), ("5", 2), (None, 1)])
def test_observation_pair_rejects_non_integer_counts(n, k):
    with pytest.raises(DomainError):
        ObservationPair(n, k)
    with pytest.raises(DomainError):
        sample_precision_single(1.0, n, k, GammaPrior(), np.random.default_rng(0))


def test_observation_pair_keeps_python_integers():
    pair = ObservationPair(np.int64(10**6), np.int32(3))
    assert (pair.n, pair.k) == (10**6, 3)
    assert type(pair.n) is int and type(pair.k) is int


def test_mixture_weights_reduce_to_single_pair_odds():
    # sample_precision_single's odds pi_x / (1 - pi_x) = (a + k - 1) / (n * rate)
    for a, n, k, rate in [(1.0, 10, 2, 1.3), (3.0, 50, 5, 7.9), (0.4, 1, 1, 2.0)]:
        _, weights = precision_mixture([ObservationPair(n, k)], GammaPrior(shape=a), rate)
        odds = (a + k - 1.0) / (n * rate)
        assert weights[1] == pytest.approx(odds / (1.0 + odds), abs=1e-12)


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
    cases = [
        (GammaPrior(shape=5.0, scale=1.0), [(10, 3), (20, 5), (15, 4)]),
        (GammaPrior(shape=1.0, scale=1.0), [(5, 1)] * 3),
    ]
    rng = np.random.default_rng(13)
    trials = 6000
    for prior, nk in cases:
        pairs = [ObservationPair(n, k) for n, k in nk]
        _, grid, w = precision_posterior_grid(prior, nk, hi=20.0, points=200_000)
        cdf = np.cumsum(w)
        cdf /= cdf[-1]
        starts = np.interp(rng.random(trials), cdf, grid)
        outs = np.array([sample_precision_multi(a0, pairs, prior, rng) for a0 in starts])
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
    est = estimate_precision(pairs, GammaPrior(shape=2.0, scale=1.0), rng)
    assert 1.0 < est < 4.0
