"""Dirichlet process utilities.

Chinese restaurant process sampling, exact moments of the induced
cluster-count distribution, and auxiliary-variable resampling of the DP
precision parameter from one or several (n items, k clusters)
observations under a gamma prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .metrics import label_codes
from .partition import Partition


@dataclass(frozen=True)
class GammaPrior:
    """Gamma prior in shape/scale form (mean = shape*scale)."""

    shape: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if not (self.shape > 0 and self.scale > 0
                and math.isfinite(self.mean) and math.isfinite(self.rate)):
            raise DomainError(
                f"gamma prior needs positive shape/scale with a finite mean and rate, got {self}"
            )

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
    before = np.arange(n, dtype=float)  # i - 1, so alpha + (i - 1) > 0 at any alpha > 0
    p = alpha / (alpha + before)
    mean = float(p.sum())
    var = float((p * before / (alpha + before)).sum())
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


def precision_mixture(pairs, prior: GammaPrior, rate):
    """The gamma mixture of alpha given the beta auxiliaries of M pairs.

    Returns (shapes, weights): alpha | x is weights[s] * Gamma(shapes[s],
    rate) summed over s = 0..M, with shapes[s] = s0 + s, s0 = a - M +
    sum(k_m), and weights[s] proportional to
    Gamma(s0 + s) * rate^(-s) * e_{M-s}(n_1..n_M), e_j the elementary
    symmetric sums of the pool sizes (see sample_precision_multi).
    """
    m = len(pairs)
    s0 = prior.shape + (sum(p.k for p in pairs) - m)  # exact, so a tiny shape is kept
    log_e = np.full(m + 1, -np.inf)
    log_e[0] = 0.0
    for p in pairs:
        log_e[1:] = np.logaddexp(log_e[1:], log_e[:-1] + math.log(p.n))
    # log Gamma(s0 + s) - log Gamma(s0) - s log(rate), for s = 0..M
    log_w = np.concatenate(([0.0], np.cumsum(np.log((s0 + np.arange(m)) / rate))))
    log_w += log_e[::-1]
    w = np.exp(log_w - log_w.max())
    return s0 + np.arange(m + 1.0), w / w.sum()


def sample_precision_multi(alpha_old, pairs, prior: GammaPrior, rng):
    """One exact refresh of the DP precision from several (n, k) observations.

    Each pair's likelihood alpha^k Gamma(alpha)/Gamma(alpha + n) equals
    alpha^(k-1) (alpha + n) B(alpha + 1, n) / Gamma(n), so an auxiliary
    x_m ~ Beta(alpha_old + 1, n_m) per pair leaves

        alpha | x  ~  alpha^(s0 - 1) exp(-bhat alpha) prod_m (alpha + n_m),

    s0 = a - M + sum(k_m), bhat = prior_rate - sum(log x_m).  Expanding the
    product, the terms with S factors of alpha sum to alpha^S e_{M-S}(n),
    so alpha | x is a mixture of Gamma(s0 + S, rate bhat) over S = 0..M
    with P(S = s) proportional to Gamma(s0 + s) bhat^(-s) e_{M-s}(n)
    (precision_mixture).  S is drawn from those M + 1 weights with one
    uniform, then alpha.  Every k_m >= 1, so s0 >= a > 0 for any prior
    shape; for M = 1 this is sample_precision_single's two-gamma mixture.
    A draw that underflows to 0 (a tiny prior shape over one-class pools)
    raises FloatingPointError.
    """
    pairs = list(pairs)
    if not pairs:
        raise DomainError("need at least one (n, k) observation pair")
    if alpha_old <= 0:
        raise DomainError(f"alpha_old must be positive, got {alpha_old}")
    xs = rng.beta(alpha_old + 1.0, [p.n for p in pairs])
    bhat = prior.rate - float(np.log(xs).sum())
    shapes, weights = precision_mixture(pairs, prior, bhat)
    cdf = np.cumsum(weights)
    s = int(np.searchsorted(cdf / cdf[-1], rng.random(), side="right"))
    alpha = float(rng.gamma(shapes[s], 1.0 / bhat))
    if alpha == 0.0:
        raise FloatingPointError(
            f"the DP precision draw underflowed to 0 under gamma prior shape {prior.shape!r}; "
            "a larger shape keeps it positive"
        )
    return alpha


ESTIMATE_DRAWS = 2000


def estimate_precision(pairs, prior: GammaPrior, rng):
    """Posterior-mean estimate of alpha: mean of the post-burn-in half of a
    chain of ESTIMATE_DRAWS precision refreshes."""
    alpha = prior.mean
    trace = np.empty(ESTIMATE_DRAWS)
    for t in range(ESTIMATE_DRAWS):
        alpha = sample_precision_multi(alpha, pairs, prior, rng)
        trace[t] = alpha
    return float(trace[ESTIMATE_DRAWS // 2 :].mean())


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
    coded = label_codes(
        [(pidx, cid) for pidx, pool in enumerate(pools) for cid in pool.assignment.values()]
    )
    total = len(coded)

    ns = np.asarray(list(ns), dtype=int)
    if ns.min() < 1 or ns.max() > total:
        raise DomainError(f"each N must be in [1, {total}], got {ns.min()}..{ns.max()}")

    dp_mean = np.empty(len(ns))
    dp_std = np.empty(len(ns))
    emp_mean = np.empty(len(ns))
    emp_std = np.empty(len(ns))
    seen = np.zeros(coded.max() + 1, dtype=bool)  # cleared after each subsample
    for j, n in enumerate(ns):
        dp_mean[j], dp_std[j] = expected_clusters(alpha, int(n))
        counts = np.empty(resamples)
        for r in range(resamples):
            classes = coded[rng.choice(total, size=int(n), replace=False)]
            seen[classes] = True
            counts[r] = np.count_nonzero(seen)
            seen[classes] = False
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
