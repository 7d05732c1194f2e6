import numpy as np
import pytest

from dpsc.data import (
    Dataset,
    SynthConfig,
    load_dataset,
    save_dataset,
    squared_mean_distance,
    standardize,
    synth_gaussian,
)
from dpsc.errors import DomainError


def toy_dataset():
    return Dataset(
        ids=["a", "b", "c", "d"],
        X=np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]]),
        labels=["x", "x", "y", None],
        split=["train", "train", "train", "test"],
    )


# ------------------------------------------------------------- validation


def test_dataset_validation():
    with pytest.raises(DomainError, match="duplicate"):
        Dataset(ids=["a", "a"], X=np.zeros((2, 1)), labels=["x", "x"], split=["train", "train"])
    with pytest.raises(DomainError, match="no gold label"):
        Dataset(ids=["a", "b"], X=np.zeros((2, 1)), labels=["x", None], split=["train", "train"])
    with pytest.raises(DomainError, match="split"):
        Dataset(ids=["a"], X=np.zeros((1, 1)), labels=["x"], split=["dev"])


# ------------------------------------------------------------ file round trips


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_round_trip(tmp_path, fmt):
    ds = toy_dataset()
    path = tmp_path / f"data.{fmt}"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back == ds


def test_csv_unlabeled_train_row_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,split,label,f1\nitem1,train,,0.5\n")
    with pytest.raises(DomainError, match="item1"):
        load_dataset(path)


def test_csv_ragged_row_reports_dims(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("id,split,label,f1,f2\na,test,,0.5,0.5\nb,test,,0.5\n")
    with pytest.raises(DomainError, match="ragged.csv:3.*expected 2.*got 1"):
        load_dataset(path)


def test_csv_parse_error_has_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,split,label,f1\na,test,,0.5\nb,test,,oops\n")
    with pytest.raises(DomainError, match="bad.csv:3"):
        load_dataset(path)


def test_json_dimension_mismatch(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('[{"id":"a","split":"test","features":[1,2]},'
                    '{"id":"b","split":"test","features":[1]}]')
    with pytest.raises(DomainError, match="expected 2"):
        load_dataset(path)


# ------------------------------------------------------------ standardize


def test_standardize_train_statistics():
    ds = toy_dataset()
    out, tf = standardize(ds)
    train = out.X[:3]
    assert train.mean(axis=0) == pytest.approx([0.0, 0.0], abs=1e-10)
    assert train.std(axis=0) == pytest.approx([1.0, 1.0], abs=1e-10)
    # Test rows use the train statistics, not their own.
    assert out.X[3] == pytest.approx((ds.X[3] - tf.mean) / tf.std)


def test_standardize_is_idempotent_on_train_stats():
    ds = toy_dataset()
    once, _ = standardize(ds)
    twice, tf2 = standardize(once)
    assert tf2.mean == pytest.approx([0.0, 0.0], abs=1e-10)
    assert tf2.std == pytest.approx([1.0, 1.0], abs=1e-10)
    assert twice.X == pytest.approx(once.X, abs=1e-10)


def test_standardize_constant_dimension_clamped():
    ds = Dataset(
        ids=["a", "b", "c"],
        X=np.array([[1.0, 5.0], [1.0, 6.0], [1.0, 7.0]]),
        labels=["x", "x", "y"],
        split=["train", "train", "train"],
    )
    out, _ = standardize(ds)
    assert np.isfinite(out.X).all()


def test_standardize_without_train_items_fits_on_every_item():
    ds = toy_dataset()
    ds.split = ["test"] * 4
    out, tf = standardize(ds)
    assert tf.mean == pytest.approx([3.0, 4.0])
    assert out.X.mean(axis=0) == pytest.approx([0.0, 0.0], abs=1e-10)
    assert out.X.std(axis=0) == pytest.approx([1.0, 1.0], abs=1e-10)


def test_standardize_needs_two_train_items():
    ds = Dataset(ids=["a"], X=np.zeros((1, 1)), labels=["x"], split=["train"])
    with pytest.raises(DomainError, match="at least 2"):
        standardize(ds)


# ------------------------------------------------------------ synthesis


def test_synth_respects_sizes_and_disjoint_labels():
    cfg = SynthConfig(n_train_classes=3, n_test_classes=2, dim=4, seed=5)
    ds = synth_gaussian(cfg)
    train_labels = {ds.labels[i] for i in ds.indices("train")}
    test_labels = {ds.labels[i] for i in ds.indices("test")}
    assert train_labels.isdisjoint(test_labels)
    assert len(train_labels) == 3 and len(test_labels) == 2
    for lab in train_labels | test_labels:
        size = sum(1 for l in ds.labels if l == lab)
        assert 30 <= size <= 300


def test_synth_reproducible():
    cfg = SynthConfig(n_train_classes=2, n_test_classes=2, dim=3, seed=9)
    a, b = synth_gaussian(cfg), synth_gaussian(cfg)
    assert a == b
    c = synth_gaussian(SynthConfig(n_train_classes=2, n_test_classes=2, dim=3, seed=10))
    assert not np.array_equal(a.X, c.X)


def test_synth_separation_controls_center_spread():
    wide = synth_gaussian(
        SynthConfig(2, 2, dim=2, min_class_size=200, max_class_size=200, separation=20.0, seed=1)
    )
    flat = synth_gaussian(
        SynthConfig(2, 2, dim=2, min_class_size=200, max_class_size=200, separation=0.0, seed=1)
    )
    # With zero separation all classes share one center; spread is ~unit.
    assert flat.X.std() < 2.0
    assert wide.X.std() > flat.X.std() * 2


def test_synth_center_distance_calibration():
    # The center scale is solved so an unconstrained pair of centers sits
    # at the requested expected distance; cross-split pairs are never
    # floored, so two one-center groups expose the raw calibration.
    import math

    from dpsc.data import _sample_centers

    rng = np.random.default_rng(3)
    for dim, sep in ((2, 5.0), (8, 6.0)):
        chi_mean = math.sqrt(2) * math.exp(math.lgamma((dim + 1) / 2) - math.lgamma(dim / 2))
        scale = sep / (math.sqrt(2) * chi_mean)
        dists = []
        for _ in range(3000):
            centers = _sample_centers(rng, (1, 1), dim, scale, sep)
            dists.append(np.linalg.norm(centers[0] - centers[1]))
        assert np.mean(dists) == pytest.approx(sep, rel=0.03)


def test_synth_same_split_classes_stay_apart():
    for seed in range(8):
        cfg = SynthConfig(4, 3, dim=2, min_class_size=40, max_class_size=40,
                          separation=5.0, seed=seed)
        ds = synth_gaussian(cfg)
        for split in ("train", "test"):
            idx = ds.indices(split)
            labs = sorted({ds.labels[i] for i in idx})
            centers = np.array(
                [ds.X[[i for i in idx if ds.labels[i] == lab]].mean(0) for lab in labs]
            )
            d = np.sqrt(((centers[:, None] - centers[None]) ** 2).sum(-1))
            iu = np.triu_indices(len(labs), 1)
            assert d[iu].min() > 0.6 * 5.0


# ---------------------------------------------------- distance identity


def test_squared_mean_distance_two_points():
    assert squared_mean_distance([[4.0]], np.zeros((1, 1)), np.zeros((1, 1))) == pytest.approx(4.0)


def test_squared_mean_distance_example():
    a = np.array([[0.0], [2.0]])
    b = np.array([[4.0], [6.0]])
    ab = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
    aa = ((a[:, None, :] - a[None, :, :]) ** 2).sum(-1)
    bb = ((b[:, None, :] - b[None, :, :]) ** 2).sum(-1)
    assert squared_mean_distance(ab, aa, bb) == pytest.approx(16.0)


def test_squared_mean_distance_matches_vector_means():
    rng = np.random.default_rng(8)
    for _ in range(50):
        a = rng.normal(size=(rng.integers(2, 7), 3))
        b = rng.normal(size=(rng.integers(2, 7), 3))
        ab = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
        aa = ((a[:, None, :] - a[None, :, :]) ** 2).sum(-1)
        bb = ((b[:, None, :] - b[None, :, :]) ** 2).sum(-1)
        direct = float(((a.mean(0) - b.mean(0)) ** 2).sum())
        assert squared_mean_distance(ab, aa, bb) == pytest.approx(direct, abs=1e-9)


def test_squared_mean_distance_shape_errors():
    with pytest.raises(DomainError):
        squared_mean_distance(np.zeros((2, 3)), np.zeros((2, 2)), np.zeros((2, 2)))
