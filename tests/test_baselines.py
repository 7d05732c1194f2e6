from collections import Counter

import numpy as np
import pytest

from dpsc import baselines
from dpsc.baselines import KMeansConfig, cdp_preset, coarse, fine, kmeans
from dpsc.errors import DomainError
from dpsc.metrics import precision_recall_f
from dpsc.partition import Partition
from oracles import lloyd


def test_coarse():
    p = coarse(["a", "b", "c"])
    assert p.n_clusters == 1 and p.n_items == 3
    gold = Partition({"a": 0, "b": 0, "c": 1})
    _, recall, _ = precision_recall_f(gold, p)
    assert recall == 1.0
    with pytest.raises(DomainError):
        coarse([])


def test_fine():
    p = fine(["a", "b", "c"])
    assert p.n_clusters == 3
    gold = Partition({"a": 0, "b": 0, "c": 1})
    precision, recall, f = precision_recall_f(gold, p)
    assert (precision, recall, f) == (1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        fine([])


def test_kmeans_exact_fits():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    all_singletons = kmeans(X, KMeansConfig(k=4, seed=0))
    assert all_singletons.n_clusters == 4
    one = kmeans(X, KMeansConfig(k=1, seed=0))
    assert one.n_clusters == 1


def test_kmeans_separated_blobs():
    rng = np.random.default_rng(0)
    a = rng.normal(0.0, 1.0, size=(40, 1))
    b = rng.normal(100.0, 1.0, size=(40, 1))
    X = np.vstack([a, b])
    ids = [f"i{j}" for j in range(80)]
    part = kmeans(X, KMeansConfig(k=2, seed=1), ids=ids)
    gold = Partition({ids[j]: int(j >= 40) for j in range(80)})
    assert part.canonical() == gold.canonical()


def test_kmeans_k_larger_than_n():
    with pytest.raises(DomainError):
        kmeans(np.zeros((2, 1)), KMeansConfig(k=3))


def test_kmeans_deterministic():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(50, 3))
    p1 = kmeans(X, KMeansConfig(k=5, seed=7))
    p2 = kmeans(X, KMeansConfig(k=5, seed=7))
    assert p1 == p2


def test_kmeans_nonempty_clusters_on_distinct_points():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 2))
    part = kmeans(X, KMeansConfig(k=6, seed=0))
    assert part.n_clusters == 6


def test_kmeans_reseeds_starved_clusters_on_duplicates():
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [5.0, 5.0]])
    part = kmeans(X, KMeansConfig(k=4, seed=0))
    assert part.assignment == {0: 1, 1: 1, 2: 2, 3: 2, 4: 0}


# (x, k, first, max_iters) of runs on the points (x, 0) that reach reseed
# branches random inputs show about once in 300 runs or less: a cluster that
# lost its point to a lower-numbered one is left empty and reseeded in turn
# (the first three), and a cut run whose output depends on the loser's mean
# dropping that point (the last).
RARE_RESEEDS = [
    ([0.5, 0.3, 0.1, 0.1, 7.9, 28.8, 0.0, 5.4, 0.1], 8, 8, 100),
    ([5.4, 0.5, 0.0, 0.9, 0.2, 0.2, 0.0, 0.2, 0.0], 9, 7, 100),
    ([2.8, 137.9, 0.1, 0.0, 2.6, 0.2, 0.1, 0.1], 7, 7, 100),
    ([0.1, 0.2, 0.0, 4.3, 0.2, 0.0, 0.2, 0.1], 6, 5, 3),
]


def _lloyd_cases(rng, count):
    """(X, k, first, max_iters) of one Lloyd run: the RARE_RESEEDS runs,
    then small point sets in 2-7 features whose rounded, heavy-tailed or repeated
    coordinates starve clusters.  A run cut after an iteration or two ends
    on the centers its reseeds left, where a run to convergence mostly
    settles where a wrong reseed would have settled too."""
    for x, k, first, max_iters in RARE_RESEEDS:
        yield np.column_stack([x, np.zeros(len(x))]), k, first, max_iters
    for case in range(count):
        n, F = int(rng.integers(4, 16)), int(rng.integers(2, 8))
        if case % 3 == 0:
            X = rng.integers(0, 3, (n, F)).astype(float)
        elif case % 3 == 1:
            X = np.round(rng.exponential(size=(n, F)) ** 3, 1)
        else:
            X = rng.normal(size=(n // 3, F))[rng.integers(n // 3, size=n)]
        yield X, int(rng.integers(1, n + 1)), int(rng.integers(n)), int(rng.choice([1, 2, 100]))


def test_lloyd_matches_the_oracle_bit_for_bit(monkeypatch):
    """For 2-7 features the vectorised steps add in the oracle's order, so
    labels and wcss are the same bits, through every reseed branch."""
    reached = Counter()
    reseed = baselines._reseed

    def spy(d2, labels, sizes):
        before = labels.copy()
        starved, far, means_of = reseed(d2, labels, sizes)
        if starved.size:
            loser, first = before[far], int(np.flatnonzero(sizes == 0)[0])
            reached["reseed"] += 1
            reached["dropped from a later mean"] += bool(loser > first)
            reached["emptied, then reseeded"] += bool(sizes[loser] == 0)
            reached["kept in an earlier mean"] += bool(loser < first)
        return starved, far, means_of

    monkeypatch.setattr(baselines, "_reseed", spy)
    for X, k, first, max_iters in _lloyd_cases(np.random.default_rng(12), 600):
        labels, wcss = baselines._lloyd(X, k, first, max_iters)
        want_labels, want_wcss = lloyd(X, k, first, max_iters)
        assert np.array_equal(labels, want_labels) and wcss == want_wcss
    assert len(reached) == 4 and min(reached.values()) >= 3, reached


@pytest.mark.parametrize("features", [1, 8, 11])
def test_lloyd_matches_the_oracle_outside_the_exact_range(features):
    """For 1 or 8+ features numpy's own sums are pairwise, so only the last
    bits of wcss may differ."""
    rng = np.random.default_rng(features)
    for _ in range(20):
        n = int(rng.integers(10, 60))
        X = rng.normal(size=(n, features))
        k, first = int(rng.integers(1, n // 2)), int(rng.integers(n))
        _, wcss = baselines._lloyd(X, k, first, 100)
        _, want = lloyd(X, k, first, 100)
        assert wcss == pytest.approx(want, rel=1e-12, abs=0.0)


def test_cdp_preset_shape():
    cfg = cdp_preset()
    assert cfg.variant == "m1"
    assert cfg.alpha_p == 1.0
    assert not cfg.resample_alphas
    assert cfg.freeze_types
