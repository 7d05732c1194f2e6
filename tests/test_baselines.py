import numpy as np
import pytest

from dpsc.baselines import KMeansConfig, cdp_preset, coarse, fine, kmeans
from dpsc.errors import DomainError
from dpsc.metrics import precision_recall_f
from dpsc.partition import Partition


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
    assert part.equivalent(gold)


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


def test_cdp_preset_shape():
    cfg = cdp_preset()
    assert cfg.variant == "m1"
    assert cfg.alpha_p == 1.0
    assert not cfg.resample_alphas
    assert cfg.freeze_types
    assert cfg.ignore_labels
