"""Dirichlet process utilities.

Chinese restaurant process sampling, exact moments of the induced
cluster-count distribution, and Gibbs resampling of the DP precision
parameter from one or several (n items, k clusters) observations under a
gamma prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .partition import Partition


@dataclass(frozen=True)
class GammaPrior:
    """Gamma prior in shape/scale form (mean = shape*scale)."""

    shape: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if not (self.shape > 0 and self.scale > 0):
            raise DomainError(f"gamma prior needs positive shape/scale, got {self}")

    @property
    def rate(self):
        return 1.0 / self.scale

    @property
    def mean(self):
        return self.shape * self.scale


@dataclass(frozen=True)
class ObservationPair:
    """One observed pool: n items grouped into k clusters."""

    n: int
    k: int

    def __post_init__(self):
        if not (1 <= self.k <= self.n):
            raise DomainError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")


@dataclass(frozen=True)
class ClusterCountCurve:
    """Expected cluster counts by sample size: DP prediction vs data."""

    ns: np.ndarray
    dp_mean: np.ndarray
    dp_std: np.ndarray
    empirical_mean: np.ndarray
    empirical_std: np.ndarray
    alpha: float


def crp_sample(alpha, n, rng) -> Partition:
    """Draw one partition of items 0..n-1 from a CRP with precision alpha.

    Joining a cluster with probability size/(alpha+i) is the same as
    picking a uniformly random earlier item and joining its cluster, so
    each step is O(1).
    """
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    u = rng.random(n)
    labels = np.empty(n, dtype=np.int64)
    k = 0
    for i in range(n):
        r = u[i] * (alpha + i)
        if r < alpha:
            labels[i] = k
            k += 1
        else:
            labels[i] = labels[int(r - alpha)]
    return Partition({i: int(labels[i]) for i in range(n)})


def expected_clusters(alpha, n):
    """Exact mean and std of the cluster count of a CRP(alpha) over n items.

    The indicator that item i opens a new cluster is Bernoulli with
    p_i = alpha/(alpha+i-1), independently across i, so the count moments
    are plain sums.
    """
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    i = np.arange(1, n + 1, dtype=float)
    p = alpha / (alpha + i - 1.0)
    mean = float(p.sum())
    var = float((p * (i - 1.0) / (alpha + i - 1.0)).sum())
    return mean, math.sqrt(var)


def sample_precision_single(alpha_old, n, k, prior: GammaPrior, rng):
    """One Gibbs refresh of the DP precision from a single (n, k) observation.

    Draws the beta auxiliary x ~ Beta(alpha_old + 1, n), then alpha from
    the two-gamma mixture
        pi_x * Gamma(a + k, rate) + (1 - pi_x) * Gamma(a + k - 1, rate)
    with rate = prior_rate - log x and odds
        pi_x / (1 - pi_x) = (a + k - 1) / (n * rate).
    """
    if not (1 <= k <= n):
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    if alpha_old <= 0:
        raise DomainError(f"alpha_old must be positive, got {alpha_old}")
    a = prior.shape
    x = rng.beta(alpha_old + 1.0, n)
    rate = prior.rate - math.log(x)
    odds = (a + k - 1.0) / (n * rate)
    shape = a + k if rng.random() < odds / (1.0 + odds) else a + k - 1.0
    return float(rng.gamma(shape, 1.0 / rate))


def sample_precision_multi(alpha_old, pairs, prior: GammaPrior, rng, gibbs_iters=200):
    """One Gibbs refresh of the DP precision from several (n, k) observations.

    Per pair m an auxiliary x_m ~ Beta(alpha_old + 1, n_m) is drawn; the
    remaining posterior is a 2^M mixture of gammas indexed by a binary
    vector i.  The mixture index is sampled by an inner Gibbs chain with

        p(i_m = 1 | rest) = (ahat + S) / (ahat + S + n_m * bhat),

    S the sum of the other indicators, ahat = a - M - 1 + sum(k_m) and
    bhat = prior_rate - sum(log x_m).  One post-burn-in indicator state is
    kept (uniform choice over the second half of the trajectory, which is
    sampling by empirical frequency) and alpha is drawn from
    Gamma(ahat + 1 + sum(i), rate bhat).
    """
    pairs = list(pairs)
    if not pairs:
        raise DomainError("need at least one (n, k) observation pair")
    if alpha_old <= 0:
        raise DomainError(f"alpha_old must be positive, got {alpha_old}")
    if gibbs_iters < 2:
        raise DomainError("gibbs_iters must be >= 2")
    m = len(pairs)
    a = prior.shape
    ahat = a - m - 1.0 + sum(p.k for p in pairs)
    if ahat <= 0:
        raise ConfigError(
            f"gamma shape a - M - 1 + sum(k) = {ahat:.3f} is not positive for "
            f"prior shape {a} and {m} observation pairs; raise the prior shape"
        )
    ns = np.array([p.n for p in pairs], dtype=float)
    xs = rng.beta(alpha_old + 1.0, ns)
    bhat = prior.rate - float(np.log(xs).sum())

    nb = ns * bhat
    ind = np.ones(m, dtype=np.int64)
    total = m
    kept_sums = np.empty(gibbs_iters - gibbs_iters // 2, dtype=np.int64)
    burn = gibbs_iters // 2
    us = rng.random((gibbs_iters, m))
    for it in range(gibbs_iters):
        for j in range(m):
            s = total - ind[j]
            p1 = (ahat + s) / (ahat + s + nb[j])
            new = 1 if us[it, j] < p1 else 0
            total += new - ind[j]
            ind[j] = new
        if it >= burn:
            kept_sums[it - burn] = total
    picked = int(kept_sums[rng.integers(len(kept_sums))])
    return float(rng.gamma(ahat + 1.0 + picked, 1.0 / bhat))


def estimate_precision(pairs, prior: GammaPrior, rng, draws=2000):
    """Posterior-mean estimate of alpha: mean of the post-burn-in half of a
    chain of precision refreshes."""
    alpha = prior.mean
    trace = np.empty(draws)
    for t in range(draws):
        alpha = sample_precision_multi(alpha, pairs, prior, rng)
        trace[t] = alpha
    return float(trace[draws // 2 :].mean())


def appropriateness_curve(labeled_pools, ns, resamples, prior: GammaPrior, rng):
    """How well a DP matches observed cluster counts as sample size grows.

    Estimates alpha from the pools' (n, k) pairs, then for each requested
    N reports the DP's expected cluster count (with std) next to the
    empirical mean/std of distinct-class counts over uniform subsamples
    of N items from the pooled data.
    """
    pools = list(labeled_pools)
    if not pools:
        raise DomainError("need at least one labeled pool")
    if resamples < 1:
        raise DomainError("resamples must be >= 1")
    pairs = [ObservationPair(p.n_items, p.n_clusters) for p in pools]
    alpha = estimate_precision(pairs, prior, rng)

    # Pool item class labels, kept distinct across pools.
    labels = []
    for pidx, pool in enumerate(pools):
        for cid in pool.assignment.values():
            labels.append((pidx, cid))
    code_of = {lab: i for i, lab in enumerate(dict.fromkeys(labels))}
    coded = np.array([code_of[lab] for lab in labels])
    total = len(coded)

    ns = np.asarray(list(ns), dtype=int)
    if ns.min() < 1 or ns.max() > total:
        raise DomainError(f"each N must be in [1, {total}], got {ns.min()}..{ns.max()}")

    dp_mean = np.empty(len(ns))
    dp_std = np.empty(len(ns))
    emp_mean = np.empty(len(ns))
    emp_std = np.empty(len(ns))
    for j, n in enumerate(ns):
        dp_mean[j], dp_std[j] = expected_clusters(alpha, int(n))
        counts = np.empty(resamples)
        for r in range(resamples):
            idx = rng.choice(total, size=int(n), replace=False)
            counts[r] = len(np.unique(coded[idx]))
        emp_mean[j] = counts.mean()
        emp_std[j] = counts.std()
    return ClusterCountCurve(
        ns=ns,
        dp_mean=dp_mean,
        dp_std=dp_std,
        empirical_mean=emp_mean,
        empirical_std=emp_std,
        alpha=alpha,
    )
