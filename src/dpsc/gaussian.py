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
from scipy.special import gammaln

from .errors import DomainError

LOG_2PI = math.log(2.0 * math.pi)


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
    """The part of data_loglik that depends on the precisions t alone."""
    return 0.5 * float((np.log(t) - LOG_2PI).sum())


def data_loglik_rows(r, P, t, const=None):
    """data_loglik of one item against each row of P (K centers at once);
    ``const`` is loglik_const(t), when the caller already has it."""
    if const is None:
        const = loglik_const(t)
    return const - 0.5 * ((r - P) ** 2 @ t)


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
    """Base-only pieces of the new-type marginal: the summed log-normalizer
    and, as lists, the per-dimension shape + 1/2 and the rate."""
    a, rate = base.shape, base.rate
    const = float((gammaln(a + 0.5) - gammaln(a) - 0.5 * LOG_2PI + a * np.log(rate)).sum())
    return const, (a + 0.5).tolist(), rate.tolist()


def new_type_loglik(d2, terms):
    """marginal_loglik_new_type from the squared differences d2 = (r - p)^2,
    a sequence of floats, unchecked; ``terms`` is new_type_terms(base).
    Scalar arithmetic, as the d update calls it once per item on a few
    dimensions."""
    const, shape_half, rate = terms
    acc = 0.0
    for a, b, x in zip(shape_half, rate, d2):
        acc += a * math.log(b + 0.5 * x)
    return const - acc


def marginal_loglik_new_type(r, p, base: TypeBase):
    """log of the observation density with the precisions integrated out.

    The gamma-Normal compound per dimension is a Student-t:
    Gamma(a+1/2)/Gamma(a) / sqrt(2 pi) * rate^a / (rate + d^2/2)^(a+1/2)
    with d = r - p and rate = 1/scale.
    """
    r, p = np.asarray(r, float), np.asarray(p, float)
    _check_dims(r, p, base.shape)
    return new_type_loglik(((r - p) ** 2).tolist(), new_type_terms(base))


def publication_posterior_params(rs, ts, base: PublicationBase):
    """Per-dimension Normal posterior (mean, precision) of a cluster center
    given observations rs with per-observation precision vectors ts."""
    rs = np.atleast_2d(np.asarray(rs, float))
    ts = np.atleast_2d(np.asarray(ts, float))
    if rs.size == 0:
        prec = np.full(base.dim, 1.0 / base.variance)
        return base.mean.copy(), prec
    _check_dims(rs, ts, base.mean)
    prec = 1.0 / base.variance + ts.sum(axis=0)
    mean = (base.mean / base.variance + (ts * rs).sum(axis=0)) / prec
    return mean, prec


def posterior_sample_publication(rs, ts, base: PublicationBase, rng, size=None):
    """Exact conjugate draw of a cluster center; prior draw if no data.
    ``size`` (for example (m, dim)) gives m independent draws as rows."""
    mean, prec = publication_posterior_params(rs, ts, base)
    return rng.normal(mean, np.sqrt(1.0 / prec), size)


def type_posterior_params(rs, ps, base: TypeBase):
    """Per-dimension Gamma posterior (shape, rate) of a precision vector
    given observations rs with their cluster centers ps."""
    rs = np.atleast_2d(np.asarray(rs, float))
    ps = np.atleast_2d(np.asarray(ps, float))
    if rs.size == 0:
        return base.shape.copy(), base.rate
    _check_dims(rs, ps, base.shape)
    shape = base.shape + 0.5 * rs.shape[0]
    rate = base.rate + 0.5 * ((rs - ps) ** 2).sum(axis=0)
    return shape, rate


def posterior_sample_type(rs, ps, base: TypeBase, rng):
    """Exact conjugate draw of a precision vector; prior draw if no data."""
    shape, rate = type_posterior_params(rs, ps, base)
    return rng.gamma(shape, 1.0 / rate)


def publication_base_logpdf(p, base: PublicationBase):
    p = np.asarray(p, float)
    _check_dims(p, base.mean)
    v = base.variance
    return float((-0.5 * (LOG_2PI + math.log(v)) - 0.5 * (p - base.mean) ** 2 / v).sum())


def type_base_logpdf(t, base: TypeBase):
    t = np.asarray(t, float)
    _check_dims(t, base.shape)
    a, b = base.shape, base.scale
    return float(((a - 1.0) * np.log(t) - t / b - gammaln(a) - a * np.log(b)).sum())


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


def pairwise_sq_diff_sum(publications):
    """Per-dimension sum of squared differences over all center pairs.

    This is the only part of the conditional type prior that depends on
    the precision vector, and it is ordering-free.
    """
    P = np.atleast_2d(np.asarray(publications, float))
    if P.shape[0] < 2:
        return np.zeros(P.shape[1])
    diffs = P[:, None, :] - P[None, :, :]
    iu = np.triu_indices(P.shape[0], k=1)
    return (diffs[iu] ** 2).sum(axis=0)


def conditional_type_base(base: TypeBase, pair_sq_sum) -> TypeBase:
    """The distance-conditioned type prior, itself a gamma base.

    Tilting the gamma base by prod_{j<k} exp(-||p_j - p_k||^2_t) leaves a
    product of gammas Gamma(shape_f, rate_f + S_f), with S the pairwise
    squared-difference sums of the centers (pairwise_sq_diff_sum);
    everything else in the raw conditional expression is independent of t
    and belongs to the normalizer.
    """
    return TypeBase(shape=base.shape, scale=1.0 / (base.rate + np.asarray(pair_sq_sum, float)))
