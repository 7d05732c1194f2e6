"""Diagonal-Gaussian data model and its conjugate machinery.

Items are F-dimensional vectors generated from a Normal whose mean is a
latent cluster center ("publication") and whose per-dimension precisions
come from a latent "reference type" shared across clusters.  The base
measures are a Normal over centers and independent gammas over the
precision of each dimension, so all single-observation marginals and
posterior draws are closed-form.  Two extensions live here as well: an
adaptive gamma base fitted to within-cluster variances each sweep, and a
conditional prior that ties the types to the relative distances between
centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

LOG_2PI = math.log(2.0 * math.pi)


def _lgamma(x):
    """log|Gamma(x)|, +inf at the poles and past overflow."""
    try:
        return math.lgamma(x)
    except (OverflowError, ValueError):
        return math.inf


def log_gamma(x):
    """log|Gamma| of each entry of a 1-D float array, by ``math.lgamma``;
    +inf at the poles 0, -1, -2, ... and past overflow."""
    return np.fromiter(map(_lgamma, x.tolist()), float, len(x))


@dataclass(frozen=True, eq=False)
class PublicationBase:
    """Isotropic Normal base over cluster centers: N(mean, variance*I)."""

    mean: np.ndarray
    variance: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        if self.variance <= 0:
            raise DomainError(f"prior variance must be positive, got {self.variance}")

    @classmethod
    def standard(cls, dim):
        return cls(mean=np.zeros(dim), variance=1.0)

    @property
    def dim(self):
        return self.mean.shape[0]


@dataclass(frozen=True, eq=False)
class TypeBase:
    """Independent Gamma(shape_f, scale_f) base over per-dimension precisions."""

    shape: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "shape", np.asarray(self.shape, dtype=float))
        object.__setattr__(self, "scale", np.asarray(self.scale, dtype=float))
        if self.shape.shape != self.scale.shape:
            raise DomainError("shape/scale vectors must have equal length")
        ok = np.all(self.shape > 0) and np.all(self.scale > 0)
        if not (ok and np.all(np.isfinite(self.shape)) and np.all(np.isfinite(self.scale))):
            raise DomainError("gamma base needs positive finite shape and scale")

    @classmethod
    def standard(cls, dim):
        return cls(shape=np.ones(dim), scale=np.ones(dim))

    @property
    def dim(self):
        return self.shape.shape[0]

    @property
    def rate(self):
        return 1.0 / self.scale


def _check_dims(*vecs):
    dims = {np.asarray(v).shape[-1] for v in vecs}
    if len(dims) != 1:
        raise DomainError(f"dimension mismatch: {sorted(dims)}")


def data_loglik(r, p, t):
    """log N(r; p, diag(1/t)) summed over dimensions."""
    r, p, t = np.asarray(r, float), np.asarray(p, float), np.asarray(t, float)
    _check_dims(r, p, t)
    return float(0.5 * (np.log(t) - LOG_2PI - t * (r - p) ** 2).sum())


def loglik_const(t):
    """The part of data_loglik that depends on the precisions t alone, for
    one precision vector or for each row of a matrix of them."""
    return 0.5 * (np.log(t) - LOG_2PI).sum(axis=-1)


def data_loglik_rows(r, P, t):
    """data_loglik of one item against each row of P (K centers at once)."""
    return loglik_const(t) - 0.5 * ((r - P) ** 2 @ t)


def new_publication_terms(t, base: PublicationBase):
    """Per-dimension variance and log-normalizer of the observation density
    with the center integrated out; they depend on t and the base only."""
    var = base.variance + 1.0 / t
    return var, -0.5 * (LOG_2PI + np.log(var))


def marginal_loglik_new_publication(r, t, base: PublicationBase):
    """log of the observation density with the center integrated out.

    Convolving the Normal center prior with the Normal likelihood gives,
    per dimension, N(r; base mean, base variance + 1/t).
    """
    r, t = np.asarray(r, float), np.asarray(t, float)
    _check_dims(r, t, base.mean)
    var, head = new_publication_terms(t, base)
    return float(new_publication_loglik_rows(r[None], var, head, base)[0])


def new_publication_loglik_rows(R, var, head, base: PublicationBase):
    """marginal_loglik_new_publication of each row of R, unchecked; ``var``
    and ``head`` are new_publication_terms of the precisions of each row
    (or of all rows at once)."""
    return (head - 0.5 * (R - base.mean) ** 2 / var).sum(axis=1)


def new_type_terms(base: TypeBase):
    """Base-only pieces of the new-type marginal: the summed log-normalizer,
    the per-dimension shape + 1/2 and the rate."""
    a, rate = base.shape, base.rate
    const = float((log_gamma(a + 0.5) - log_gamma(a) - 0.5 * LOG_2PI + a * np.log(rate)).sum())
    return const, a + 0.5, rate


def new_type_loglik(D2, terms):
    """marginal_loglik_new_type of each row of the squared differences
    D2 = (r - p)^2 (or of one such vector), unchecked; ``terms`` is
    new_type_terms(base)."""
    const, shape_half, rate = terms
    return const - np.log(rate + 0.5 * D2) @ shape_half


def marginal_loglik_new_type(r, p, base: TypeBase):
    """log of the observation density with the precisions integrated out.

    The gamma-Normal compound per dimension is a Student-t:
    Gamma(a+1/2)/Gamma(a) / sqrt(2 pi) * rate^a / (rate + d^2/2)^(a+1/2)
    with d = r - p and rate = 1/scale.
    """
    r, p = np.asarray(r, float), np.asarray(p, float)
    _check_dims(r, p, base.shape)
    return float(new_type_loglik((r - p) ** 2, new_type_terms(base)))


def publication_posterior_from_sums(t_sum, tr_sum, base: PublicationBase):
    """publication_posterior_params from the sums, over a center's
    observations, of their precision vectors (``t_sum``) and of precision
    times observation (``tr_sum``); one center per row of 2-D sums."""
    prec = 1.0 / base.variance + t_sum
    return (base.mean / base.variance + tr_sum) / prec, prec


def publication_posterior_params(rs, ts, base: PublicationBase):
    """Per-dimension Normal posterior (mean, precision) of a cluster center
    given observations rs with per-observation precision vectors ts."""
    rs = np.atleast_2d(np.asarray(rs, float))
    ts = np.atleast_2d(np.asarray(ts, float))
    if rs.size == 0:
        prec = np.full(base.dim, 1.0 / base.variance)
        return base.mean.copy(), prec
    _check_dims(rs, ts, base.mean)
    return publication_posterior_from_sums(ts.sum(axis=0), (ts * rs).sum(axis=0), base)


def posterior_sample_publication(rs, ts, base: PublicationBase, rng):
    """Exact conjugate draw of a cluster center; prior draw if no data."""
    mean, prec = publication_posterior_params(rs, ts, base)
    return rng.normal(mean, np.sqrt(1.0 / prec))


def type_posterior_from_sums(count, sq_sum, base: TypeBase):
    """type_posterior_params from a type's observation count and the sum of
    their squared residuals ``sq_sum``; one type per row of 2-D sums, with
    ``count`` a column."""
    return base.shape + 0.5 * count, base.rate + 0.5 * sq_sum


def type_posterior_params(rs, ps, base: TypeBase):
    """Per-dimension Gamma posterior (shape, rate) of a precision vector
    given observations rs with their cluster centers ps."""
    rs = np.atleast_2d(np.asarray(rs, float))
    ps = np.atleast_2d(np.asarray(ps, float))
    if rs.size == 0:
        return base.shape.copy(), base.rate
    _check_dims(rs, ps, base.shape)
    return type_posterior_from_sums(rs.shape[0], ((rs - ps) ** 2).sum(axis=0), base)


def posterior_sample_type(rs, ps, base: TypeBase, rng):
    """Exact conjugate draw of a precision vector; prior draw if no data."""
    shape, rate = type_posterior_params(rs, ps, base)
    return rng.gamma(shape, 1.0 / rate)


def publication_base_logpdf(p, base: PublicationBase):
    """log density of a center under the base, or of each row of a matrix
    of centers."""
    p = np.asarray(p, float)
    _check_dims(p, base.mean)
    v = base.variance
    return (-0.5 * (LOG_2PI + math.log(v)) - 0.5 * (p - base.mean) ** 2 / v).sum(axis=-1)


def type_base_logpdf(t, base: TypeBase):
    """log density of a precision vector under the base, or of each row of
    a matrix of them."""
    t = np.asarray(t, float)
    _check_dims(t, base.shape)
    a, b = base.shape, base.scale
    return ((a - 1.0) * np.log(t) - t / b - log_gamma(a) - a * np.log(b)).sum(axis=-1)


VAR_FLOOR = 1e-8
SCALE_FLOOR = 1e-3


def adapt_type_base(X, assignments, publications) -> TypeBase:
    """Refit the gamma base to the spread the current clustering exhibits.

    Per dimension f, with v_j the mean squared deviation of cluster j's
    members around its current center, the base is solved from
    shape*scale = mean_j(v_j)/2 and shape*scale^2 = var_j(v_j).  Clusters
    with fewer than two members are skipped; with fewer than two usable
    clusters, or a degenerate variance-of-variances, the affected pieces
    fall back to clamped defaults so the base stays valid.
    """
    X = np.asarray(X, float)
    dim = X.shape[1]
    per_cluster = []
    for cid, center in publications.items():
        rows = X[assignments == cid]
        if rows.shape[0] >= 2:
            per_cluster.append(((rows - center) ** 2).mean(axis=0))
    if len(per_cluster) < 2:
        return TypeBase.standard(dim)
    v = np.maximum(np.array(per_cluster), VAR_FLOOR)
    mean_v = v.mean(axis=0)
    var_v = v.var(axis=0)
    degenerate = var_v < VAR_FLOOR
    scale = np.where(degenerate, SCALE_FLOOR, 2.0 * var_v / mean_v)
    shape = np.where(
        degenerate,
        (mean_v / 2.0) / SCALE_FLOOR,
        mean_v**2 / (4.0 * np.maximum(var_v, VAR_FLOOR)),
    )
    return TypeBase(shape=shape, scale=scale)


def center_moments(publications):
    """The count K of some centers (rows) and, per dimension, their mean, the
    mean's rounding residue and their scatter: the squared deviations from
    the mean, summed.  Zeros for no centers."""
    P = np.atleast_2d(np.asarray(publications, float))
    mean = P.sum(axis=0) / max(len(P), 1)
    D = P - mean
    return len(P), mean, D.sum(axis=0) / max(len(P), 1), (D * D).sum(axis=0)


def center_shares(points, moments):
    """sum_j (x - p_j)^2 per dimension for each row x of ``points``, over the
    centers with center_moments ``moments``: K (x - mean - residue)^2 +
    scatter, in O(F) a point.  The residue keeps it exact to rounding far
    from the origin."""
    k, mean, residue, scatter = moments
    E = points - mean - residue
    return k * (E * E) + scatter


def pairwise_sq_diff_sum(publications):
    """Per-dimension sum of squared differences over all center pairs: K
    times the centers' scatter (center_moments), in O(K F).

    This is the only part of the conditional type prior that depends on
    the precision vector, and it is ordering-free.
    """
    k, _, _, scatter = center_moments(publications)
    return k * scatter


def conditional_type_base(base: TypeBase, pair_sq_sum) -> TypeBase:
    """The distance-conditioned type prior, itself a gamma base.

    Tilting the gamma base by prod_{j<k} exp(-||p_j - p_k||^2_t) leaves a
    product of gammas Gamma(shape_f, rate_f + S_f), with S the pairwise
    squared-difference sums of the centers (pairwise_sq_diff_sum);
    everything else in the raw conditional expression is independent of t
    and belongs to the normalizer.
    """
    return TypeBase(shape=base.shape, scale=1.0 / (base.rate + np.asarray(pair_sq_sum, float)))
