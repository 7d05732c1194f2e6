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


@dataclass(frozen=True)
class KMeansConfig:
    k: int
    restarts: int = 10
    max_iters: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise DomainError(f"k must be >= 1, got {self.k}")
        if self.restarts < 1:
            raise DomainError(f"restarts must be >= 1, got {self.restarts}")


def _lloyd(X, k, first, max_iters):
    """One Lloyd run; returns (labels, final wcss)."""
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
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        for j in range(k):
            members = new_labels == j
            if members.any():
                centers[j] = X[members].mean(axis=0)
            else:
                # Reseed a starved cluster to the point farthest from its center.
                far = int(d2[np.arange(n), new_labels].argmax())
                centers[j] = X[far]
                new_labels[far] = j
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
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
    for _ in range(config.restarts):
        labels, wcss = _lloyd(X, config.k, int(rng.integers(n)), config.max_iters)
        if wcss < best_wcss:
            best_labels, best_wcss = labels, wcss
    return Partition({ids[i]: int(best_labels[i]) for i in range(n)})


def cdp_preset():
    """Unsupervised DP clustering: fixed alpha 1, one frozen identity type,
    gold labels ignored."""
    from .sampler import SamplerConfig

    return SamplerConfig(
        variant="m1",
        alpha_p=1.0,
        resample_alphas=False,
        freeze_types=True,
        ignore_labels=True,
    )
