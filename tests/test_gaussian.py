import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from dpsc.errors import DomainError
from dpsc.gaussian import (
    PublicationBase,
    TypeBase,
    adapt_type_base,
    center_moments,
    center_shares,
    conditional_type_base,
    LOG_2PI,
    data_loglik,
    log_gamma,
    marginal_loglik_new_publication,
    marginal_loglik_new_type,
    new_type_terms,
    pairwise_sq_diff_sum,
    posterior_sample_publication,
    posterior_sample_type,
    publication_posterior_params,
    type_base_logpdf,
    type_posterior_params,
)


def norm_pdf(x, mean, var):
    return math.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2 * math.pi * var)


def gamma_pdf(t, shape, scale):
    if t <= 0:
        return 0.0
    return (
        t ** (shape - 1.0) * math.exp(-t / scale) / (math.gamma(shape) * scale**shape)
    )


# ------------------------------------------------------------ data loglik


def test_data_loglik_known_values():
    assert data_loglik([0.0], [0.0], [1.0]) == pytest.approx(-0.9189385332046727)
    assert data_loglik([1.0], [0.0], [1.0]) == pytest.approx(-1.4189385332046727)
    expected = 0.5 * math.log(4) - 0.5 * math.log(2 * math.pi) - 2.0
    assert data_loglik([1.0], [0.0], [4.0]) == pytest.approx(expected)


def test_data_loglik_sums_over_dimensions():
    rng = np.random.default_rng(0)
    r, p = rng.normal(size=4), rng.normal(size=4)
    t = rng.gamma(2.0, 1.0, size=4)
    total = data_loglik(r, p, t)
    parts = sum(data_loglik([r[f]], [p[f]], [t[f]]) for f in range(4))
    assert total == pytest.approx(parts)
    with pytest.raises(DomainError):
        data_loglik([0.0, 1.0], [0.0], [1.0])


# -------------------------------------------- marginal: new publication


def test_marginal_new_publication_analytic_case():
    base = PublicationBase(mean=[0.0], variance=1.0)
    got = marginal_loglik_new_publication([0.0], [1.0], base)
    assert got == pytest.approx(math.log(norm_pdf(0.0, 0.0, 2.0)))


@pytest.mark.parametrize("r", [-1.5, 0.0, 0.4, 2.0])
@pytest.mark.parametrize("t,sigma", [(1.0, 1.0), (4.0, 0.5), (0.3, 2.0)])
def test_marginal_new_publication_matches_quadrature(r, t, sigma):
    base = PublicationBase(mean=[0.2], variance=sigma)
    integral, _ = quad(
        lambda p: norm_pdf(p, 0.2, sigma) * norm_pdf(r, p, 1.0 / t), -40, 40
    )
    got = marginal_loglik_new_publication([r], [t], base)
    assert got == pytest.approx(math.log(integral), abs=1e-6)


def test_marginal_new_publication_degenerate_prior_and_translation():
    tight = PublicationBase(mean=[0.0], variance=1e-10)
    got = marginal_loglik_new_publication([0.7], [2.0], tight)
    assert got == pytest.approx(data_loglik([0.7], [0.0], [2.0]), abs=1e-6)
    a = marginal_loglik_new_publication([1.3], [0.7], PublicationBase(mean=[0.2], variance=1.5))
    b = marginal_loglik_new_publication([11.3], [0.7], PublicationBase(mean=[10.2], variance=1.5))
    assert a == pytest.approx(b, abs=1e-12)


# -------------------------------------------------- marginal: new type


@pytest.mark.parametrize("delta", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("shape,scale", [(1.0, 1.0), (2.5, 0.4)])
def test_marginal_new_type_matches_quadrature(delta, shape, scale):
    base = TypeBase(shape=[shape], scale=[scale])
    integral, _ = quad(
        lambda t: gamma_pdf(t, shape, scale) * norm_pdf(delta, 0.0, 1.0 / t),
        0,
        np.inf,
        limit=200,
    )
    got = marginal_loglik_new_type([delta], [0.0], base)
    assert got == pytest.approx(math.log(integral), abs=1e-6)


def test_marginal_new_type_symmetric_and_unimodal():
    base = TypeBase.standard(1)
    a = marginal_loglik_new_type([0.8], [0.0], base)
    b = marginal_loglik_new_type([-0.8], [0.0], base)
    assert a == pytest.approx(b)
    vals = [marginal_loglik_new_type([d], [0.0], base) for d in (0.0, 0.5, 1.0, 2.0, 4.0)]
    assert all(x > y for x, y in zip(vals, vals[1:]))


# ----------------------------------------------- conjugate posteriors


def test_publication_posterior_one_observation():
    base = PublicationBase(mean=[0.0], variance=1.0)
    mean, prec = publication_posterior_params([[1.0]], [[1.0]], base)
    assert mean[0] == pytest.approx(0.5)
    assert prec[0] == pytest.approx(2.0)


def test_publication_posterior_matches_quadrature():
    base = PublicationBase(mean=[0.3], variance=0.8)
    rs = [[1.0], [2.0], [0.5]]
    ts = [[1.0], [0.5], [2.0]]
    mean, prec = publication_posterior_params(rs, ts, base)

    def unnorm(p):
        val = norm_pdf(p, 0.3, 0.8)
        for r, t in zip(rs, ts):
            val *= norm_pdf(r[0], p, 1.0 / t[0])
        return val

    z, _ = quad(unnorm, -30, 30)
    m1, _ = quad(lambda p: p * unnorm(p), -30, 30)
    m2, _ = quad(lambda p: p * p * unnorm(p), -30, 30)
    assert mean[0] == pytest.approx(m1 / z, abs=1e-6)
    assert 1.0 / prec[0] == pytest.approx(m2 / z - (m1 / z) ** 2, abs=1e-6)


def test_publication_posterior_sampling_moments():
    base = PublicationBase(mean=[0.0], variance=1.0)
    rng = np.random.default_rng(1)
    draws = np.array(
        [posterior_sample_publication([[1.0]], [[1.0]], base, rng)[0] for _ in range(40_000)]
    )
    assert draws.mean() == pytest.approx(0.5, abs=0.02)
    assert draws.var() == pytest.approx(0.5, rel=0.02)


def test_publication_posterior_prior_fallback_and_consistency():
    base = PublicationBase(mean=[1.0, -1.0], variance=2.0)
    rng = np.random.default_rng(2)
    draws = np.array(
        [posterior_sample_publication([], [], base, rng) for _ in range(20_000)]
    )
    assert draws.mean(axis=0) == pytest.approx([1.0, -1.0], abs=0.05)
    assert draws.var(axis=0) == pytest.approx([2.0, 2.0], rel=0.05)
    # Many identical observations pin the posterior at the observation.
    rs = [[3.0]] * 500
    ts = [[10.0]] * 500
    mean, prec = publication_posterior_params(rs, ts, PublicationBase(mean=[0.0]))
    assert mean[0] == pytest.approx(3.0, abs=0.01)
    assert 1.0 / prec[0] < 1e-3


def test_type_posterior_params_and_sampling():
    base = TypeBase(shape=[1.0], scale=[1.0])
    shape, rate = type_posterior_params([[0.0], [0.0]], [[0.0], [0.0]], base)
    assert shape[0] == pytest.approx(2.0)
    assert rate[0] == pytest.approx(1.0)
    rng = np.random.default_rng(3)
    draws = np.array(
        [posterior_sample_type([[0.0], [0.0]], [[0.0], [0.0]], base, rng)[0] for _ in range(100_000)]
    )
    assert draws.mean() == pytest.approx(2.0, rel=0.02)


def test_type_posterior_matches_quadrature():
    base = TypeBase(shape=[1.5], scale=[0.7])
    rs = [[0.4], [-0.9], [1.3]]
    ps = [[0.0], [0.0], [0.5]]
    shape, rate = type_posterior_params(rs, ps, base)

    def unnorm(t):
        val = gamma_pdf(t, 1.5, 0.7)
        for r, p in zip(rs, ps):
            val *= norm_pdf(r[0], p[0], 1.0 / t)
        return val

    z, _ = quad(unnorm, 0, np.inf, limit=200)
    m1, _ = quad(lambda t: t * unnorm(t), 0, np.inf, limit=200)
    m2, _ = quad(lambda t: t * t * unnorm(t), 0, np.inf, limit=200)
    assert shape[0] / rate[0] == pytest.approx(m1 / z, abs=1e-6)
    assert shape[0] / rate[0] ** 2 == pytest.approx(m2 / z - (m1 / z) ** 2, abs=1e-6)


def test_type_posterior_mean_decreases_with_residuals():
    base = TypeBase.standard(1)
    means = []
    for spread in (0.1, 1.0, 3.0):
        shape, rate = type_posterior_params(
            [[spread], [-spread]], [[0.0], [0.0]], base
        )
        means.append(shape[0] / rate[0])
    assert means[0] > means[1] > means[2]


def test_type_prior_fallback():
    base = TypeBase(shape=[2.0], scale=[0.5])
    rng = np.random.default_rng(4)
    draws = np.array([posterior_sample_type([], [], base, rng)[0] for _ in range(50_000)])
    assert draws.mean() == pytest.approx(1.0, rel=0.03)  # shape*scale
    assert draws.var() == pytest.approx(0.5, rel=0.05)  # shape*scale^2


# ------------------------------------------------------ adaptive base


def test_adapt_type_base_solves_moment_equations():
    # Two clusters whose mean squared deviations are 1 and 3 give
    # mean 2 and variance 1, hence shape = scale = 1.
    X = np.array([[-1.0], [1.0], [-math.sqrt(3)], [math.sqrt(3)]])
    c = np.array([0, 0, 1, 1])
    pubs = {0: np.array([0.0]), 1: np.array([0.0])}
    base = adapt_type_base(X, c, pubs)
    assert base.shape[0] == pytest.approx(1.0)
    assert base.scale[0] == pytest.approx(1.0)


def test_adapt_type_base_degenerate_clamp():
    # Identical cluster variances leave nothing to fit the spread with.
    X = np.array([[-1.0], [1.0], [4.0], [6.0]])
    c = np.array([0, 0, 1, 1])
    pubs = {0: np.array([0.0]), 1: np.array([5.0])}
    base = adapt_type_base(X, c, pubs)
    assert base.scale[0] == pytest.approx(1e-3)
    assert base.shape[0] * base.scale[0] == pytest.approx(0.5)  # mean variance / 2


def test_adapt_type_base_fallback_and_validity():
    X = np.array([[0.0], [1.0], [2.0]])
    base = adapt_type_base(X, np.array([0, 1, 2]), {0: X[0], 1: X[1], 2: X[2]})
    assert base.shape[0] == 1.0 and base.scale[0] == 1.0
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 3))
    c = rng.integers(0, 4, size=60)
    pubs = {j: rng.normal(size=3) for j in range(4)}
    base = adapt_type_base(X, c, pubs)
    assert (base.shape > 0).all() and (base.scale > 0).all()
    assert np.isfinite(base.shape).all() and np.isfinite(base.scale).all()


# ------------------------------------------------- conditional prior


def test_conditional_prior_single_publication():
    # One center leaves nothing to tilt: the base.
    tb = TypeBase(shape=[2.0, 0.7], scale=[0.5, 1.5])
    t = np.array([1.3, 0.6])
    s = pairwise_sq_diff_sum(np.array([[0.4, -0.2]]))
    got = type_base_logpdf(t, conditional_type_base(tb, s))
    assert got == pytest.approx(type_base_logpdf(t, tb), abs=1e-12)


def test_conditional_prior_zero_distance_term():
    # With coincident centers each pairwise factor is exp(0): the base, at any rate.
    tb = TypeBase.standard(1)
    t = np.array([2.0])
    pubs = np.array([[0.5], [0.5]])
    for rate in (1.0, 3.5):
        got = type_base_logpdf(t, conditional_type_base(tb, rate * pairwise_sq_diff_sum(pubs)))
        assert got == pytest.approx(type_base_logpdf(t, tb), abs=1e-12)


@pytest.mark.parametrize("shape,scale,pair_sq,rate", [(1.0, 1.0, 4.0, 1.0), (2.5, 0.4, 0.3, 2.0)])
def test_conditional_density_integrates_to_one(shape, scale, pair_sq, rate):
    base = TypeBase(shape=[shape], scale=[scale])
    prior = conditional_type_base(base, rate * np.array([pair_sq]))
    total, _ = quad(lambda t: math.exp(type_base_logpdf([t], prior)), 0, np.inf)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_conditional_prior_penalizes_high_precision_separation():
    tb = TypeBase(shape=[2.0, 1.5], scale=[1.0, 0.5])
    pubs = np.array([[0.0, 0.0], [2.0, 1.0], [-1.0, 3.0]])
    lo, hi = np.array([1.0, 0.5]), np.array([2.0, 1.5])
    rate = 0.7

    def raw(t):  # G0t(t) * prod_{j<k} exp(-rate * ||p_j - p_k||^2_t), unnormalized
        lp = sum(
            (a - 1.0) * math.log(x) - x / b for x, a, b in zip(t, tb.shape, tb.scale)
        )
        for j in range(len(pubs)):
            for k in range(j + 1, len(pubs)):
                lp -= rate * float(((pubs[j] - pubs[k]) ** 2 * t).sum())
        return lp

    prior = conditional_type_base(tb, rate * pairwise_sq_diff_sum(pubs))
    got = type_base_logpdf(hi, prior) - type_base_logpdf(lo, prior)
    assert got == pytest.approx(raw(hi) - raw(lo), abs=1e-12)
    assert got < type_base_logpdf(hi, tb) - type_base_logpdf(lo, tb)


def test_pairwise_sq_diff_sum():
    pubs = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, -1.0]])
    got = pairwise_sq_diff_sum(pubs)
    expected = np.zeros(2)
    for j in range(3):
        for k in range(j + 1, 3):
            expected += (pubs[j] - pubs[k]) ** 2
    assert got == pytest.approx(expected)
    assert pairwise_sq_diff_sum(pubs[:1]) == pytest.approx([0.0, 0.0])


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
@pytest.mark.parametrize("k", [1, 2, 40, 300])
def test_pair_sums_and_center_shares_match_pair_loops(k, offset):
    # Unit-spread centers and points far from the origin: the shares read
    # from the moments stay within rounding because they carry the mean's
    # rounding residue.
    rng = np.random.default_rng(k)
    P = rng.normal(size=(k, 3)) + offset
    X = rng.normal(size=(25, 3)) + offset
    loops = np.array([math.fsum((P[i, f] - P[j, f]) ** 2 for i in range(k)
                                for j in range(i + 1, k)) for f in range(3)])
    got = pairwise_sq_diff_sum(P)
    if k == 1:
        assert got.tolist() == [0.0, 0.0, 0.0]
    else:
        assert np.abs(got - loops).max() <= 1e-12 * loops.min()
    loops = np.array([[math.fsum((x[f] - p[f]) ** 2 for p in P) for f in range(3)] for x in X])
    got = center_shares(X, center_moments(P))
    assert (np.abs(got - loops) <= 1e-12 * loops).all()
    # No centers: every share, and the pair sum, is zero.
    assert not center_shares(X, center_moments(P[:0])).any()
    assert not pairwise_sq_diff_sum(P[:0]).any()


# ------------------------------------------------------------ log-gamma

# Integer counts, half-integers and log-uniform values over nine decades.
LGAMMA_ARGS = {
    "integers": np.arange(1.0, 10_001.0),
    "half-integers": np.arange(0.5, 5_000.5, 1.0),
    "log-uniform": np.exp(np.random.default_rng(7).uniform(math.log(1e-3), math.log(1e6), 10_000)),
}


def assert_matches_terms(got, terms):
    """``got`` equals the sum of scipy-evaluated ``terms`` to 1e-14 of the
    terms' magnitude (of the value itself when there is one term)."""
    terms = np.asarray(terms, float)
    assert abs(got - terms.sum()) <= 1e-14 * max(1.0, np.abs(terms).sum())


def test_log_gamma_is_inf_at_the_poles_and_past_overflow():
    x = np.array([1e306, np.inf, 0.0, -1.0])
    got = log_gamma(x)
    assert np.all(got == np.inf)
    assert np.array_equal(got, gammaln(x))


@pytest.mark.parametrize("name", LGAMMA_ARGS)
def test_log_gamma_matches_scipy_gammaln(name):
    x = LGAMMA_ARGS[name]
    got, want = log_gamma(x), gammaln(x)
    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("name", LGAMMA_ARGS)
def test_new_type_terms_and_base_logpdf_match_scipy_gammaln(name):
    # The shape + 1/2 and shape log-gammas nearly cancel at large shapes, so
    # the bound is taken on the magnitude of the terms summed.
    a = LGAMMA_ARGS[name][::50]
    scale = np.exp(np.random.default_rng(3).uniform(-3.0, 3.0, len(a)))
    base = TypeBase(shape=a, scale=scale)
    t = np.full(len(a), 0.5)
    for k in range(len(a)):
        one = TypeBase(shape=a[k : k + 1], scale=scale[k : k + 1])
        const, _, _ = new_type_terms(one)
        assert_matches_terms(
            const, [gammaln(a[k] + 0.5), -gammaln(a[k]), -0.5 * LOG_2PI, a[k] * np.log(one.rate[0])]
        )
    terms = np.stack([
        (a - 1.0) * np.log(t), -t / scale, -gammaln(a), -a * np.log(scale)
    ])
    assert_matches_terms(float(type_base_logpdf(t, base)), terms)
