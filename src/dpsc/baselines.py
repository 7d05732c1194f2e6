"""Reference systems: trivial partitions, oracle-k k-means, and the
unsupervised DP clustering preset."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .partition import Partition


def coarse(ids) -> Partition:
    """Everything in one cluster."""
    ids = list(ids)
    if not ids:
        raise DomainError("coarse baseline needs at least one item")
    return Partition({i: 0 for i in ids})


def fine(ids) -> Partition:
    """Every item in its own cluster."""
    ids = list(ids)
    if not ids:
        raise DomainError("fine baseline needs at least one item")
    return Partition({item: j for j, item in enumerate(ids)})


KMEANS_RESTARTS = 10
KMEANS_MAX_ITERS = 100


@dataclass(frozen=True)
class KMeansConfig:
    k: int
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise DomainError(f"k must be >= 1, got {self.k}")


def _sq_dists(X, centers):
    """Squared distances of every point to every center, (n, k), added one
    feature at a time: for under 8 features that is the order numpy's
    ``.sum(axis=-1)`` adds them in, so the bits are the same."""
    d2 = X[:, :1] - centers[:, 0]
    d2 *= d2
    diff = np.empty_like(d2)
    for f in range(1, X.shape[1]):
        np.subtract(X[:, f:f + 1], centers[:, f], out=diff)
        diff *= diff
        d2 += diff
    return d2


def _reseed(d2, labels, sizes):
    """Reseed the clusters that no point is nearest to, in ascending order
    (``labels`` and ``sizes`` updated in place).  Each takes the point
    farthest from its assigned center under the labels as reseeded so far.
    That point's distance to any other center is no smaller than to its
    nearest, so it stays the farthest: every reseeded cluster takes the same
    point, which ends in the last of them.  The cluster it first leaves drops
    it from its mean if numbered above the first reseeded one, and is
    reseeded in turn if that empties it; if numbered below, it keeps the mean
    it had.  Returns (the reseeded clusters, their point, each point's
    cluster for the means)."""
    starved = np.flatnonzero(sizes == 0)
    if not starved.size:
        return starved, 0, labels
    far = int(d2[np.arange(len(labels)), labels].argmax())
    means_of, loser = labels.copy(), labels[far]
    if loser > starved[0]:
        sizes[loser] -= 1
        means_of[far] = starved[0]
        starved = np.flatnonzero(sizes == 0)
    labels[far] = starved[-1]
    return starved, far, means_of


def _lloyd(X, k, first, max_iters):
    """One Lloyd run; returns (labels, final wcss)."""
    # Imported here, as in cdp_preset, so that importing the baselines does
    # not load the sampler.
    from .sampler import _row_sums

    n = X.shape[0]
    # Farthest-point seeding from a given first center.
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[first]
    mind2 = ((X - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        centers[j] = X[int(mind2.argmax())]
        mind2 = np.minimum(mind2, ((X - centers[j]) ** 2).sum(axis=1))

    labels = np.full(n, -1)
    for _ in range(max_iters):
        d2 = _sq_dists(X, centers)
        new_labels = d2.argmin(axis=1)
        sizes = np.bincount(new_labels, minlength=k)
        starved, far, means_of = _reseed(d2, new_labels, sizes)
        # A reseeded cluster has size 0 here, and its center is its point.
        centers = _row_sums(means_of, X, k) / np.maximum(sizes, 1)[:, None]
        centers[starved] = X[far]
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    d2 = _sq_dists(X, centers)
    labels = d2.argmin(axis=1)
    wcss = float(d2[np.arange(n), labels].sum())
    return labels, wcss


def kmeans(X, config: KMeansConfig, ids=None) -> Partition:
    """Lloyd's algorithm with farthest-point seeding, best of restarts by
    within-cluster sum of squares."""
    X = np.asarray(X, float)
    n = X.shape[0]
    if config.k > n:
        raise DomainError(f"k={config.k} exceeds the number of items {n}")
    if ids is None:
        ids = list(range(n))
    rng = np.random.default_rng(config.seed)
    best_labels, best_wcss = None, np.inf
    for _ in range(KMEANS_RESTARTS):
        labels, wcss = _lloyd(X, config.k, int(rng.integers(n)), KMEANS_MAX_ITERS)
        if wcss < best_wcss:
            best_labels, best_wcss = labels, wcss
    return Partition({ids[i]: int(best_labels[i]) for i in range(n)})


def cdp_preset():
    """Unsupervised DP clustering: fixed alpha 1, one frozen identity type.
    Run it on a dataset of test items only; training items would be pinned
    to their gold classes as in any other run."""
    from .sampler import SamplerConfig

    return SamplerConfig(
        variant="m1",
        resample_alphas=False,
        freeze_types=True,
    )
