"""Dataset loading, standardization, synthetic generation, and the
distance-only mean identity.

A dataset is a flat table of items: string id, dense feature vector,
optional gold class label, and a train/test split flag.  Every training
item must be labeled; test labels are optional (they are only needed for
scoring).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .partition import Partition

SPLITS = ("train", "test")
STD_FLOOR = 1e-8


@dataclass
class Dataset:
    ids: list
    X: np.ndarray
    labels: list
    split: list

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        n = len(self.ids)
        if self.X.ndim != 2 or self.X.shape[0] != n:
            raise DomainError(f"feature matrix must be ({n}, F), got {self.X.shape}")
        if self.X.shape[1] == 0:
            raise DomainError("items must have at least one feature, got none")
        if len(self.labels) != n or len(self.split) != n:
            raise DomainError("ids, labels and split must have equal length")
        if len(set(self.ids)) != n:
            seen, dup = set(), None
            for i in self.ids:
                if i in seen:
                    dup = i
                    break
                seen.add(i)
            raise DomainError(f"duplicate item id {dup!r}")
        # A partition file holds one item<TAB>cluster line per item.  The ids
        # are searched joined, which is much faster than one by one.
        breaks, joined = ("\t", "\n", "\r"), "\0".join(map(str, self.ids))
        if any(ch in joined for ch in breaks):
            bad = next(i for i in self.ids if any(ch in str(i) for ch in breaks))
            raise DomainError(f"row {bad!r}: item id must not contain a tab or a line break")
        finite = np.isfinite(self.X).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise DomainError(
                f"row {self.ids[i]!r}: features must be finite, got {self.X[i].tolist()}"
            )
        for i, s in enumerate(self.split):
            if s not in SPLITS:
                raise DomainError(f"row {self.ids[i]!r}: split must be train or test, got {s!r}")
            if s == "train" and not self.labels[i]:
                raise DomainError(f"row {self.ids[i]!r}: training item has no gold label")

    @property
    def n_items(self):
        return len(self.ids)

    @property
    def dim(self):
        return self.X.shape[1]

    def indices(self, split):
        return np.array([i for i, s in enumerate(self.split) if s == split], dtype=int)

    def gold_partition(self) -> Partition:
        """The test items grouped by their gold labels."""
        idx = self.indices("test")
        if any(not self.labels[i] for i in idx):
            raise DomainError("test items are not fully labeled")
        return Partition({self.ids[i]: self.labels[i] for i in idx})

    def __eq__(self, other):
        return (
            isinstance(other, Dataset)
            and self.ids == other.ids
            and self.labels == other.labels
            and self.split == other.split
            and self.X.shape == other.X.shape
            and np.array_equal(self.X, other.X)
        )


@dataclass(frozen=True, eq=False)
class Standardizer:
    """Per-dimension affine transform fitted on training statistics."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, X):
        return (np.asarray(X, float) - self.mean) / self.std


def standardize(dataset: Dataset):
    """Center and spherize all features using per-dimension statistics of
    the training items, or of every item when there are none (a fully
    unsupervised run).

    Returns the transformed dataset and the fitted transform.  Standard
    deviations are floored at a small constant so constant dimensions
    stay finite.
    """
    idx = dataset.indices("train")
    if len(idx) == 0:
        idx = np.arange(dataset.n_items)
    if len(idx) < 2:
        raise DomainError(f"need at least 2 items to fit statistics, got {len(idx)}")
    mean = dataset.X[idx].mean(axis=0)
    std = np.maximum(dataset.X[idx].std(axis=0), STD_FLOOR)
    tf = Standardizer(mean=mean, std=std)
    X = tf.apply(dataset.X)
    # The samplers sum squared standardized values over the items, so those
    # sums must be finite.
    with np.errstate(over="ignore"):
        too_large = np.flatnonzero(~np.isfinite((X * X).sum(axis=0)))
    if len(too_large):
        raise DomainError(
            f"features {(too_large + 1).tolist()} are too large after standardization: "
            "the sum of their squares over the items is not a finite float"
        )
    out = Dataset(
        ids=list(dataset.ids),
        X=X,
        labels=list(dataset.labels),
        split=list(dataset.split),
    )
    return out, tf


def _is_json(path):
    """A dataset path names a JSON file if it ends in .json, else CSV."""
    return str(path).endswith(".json")


def load_dataset(path) -> Dataset:
    """Read a dataset from JSON (a ``.json`` path) or else CSV (header:
    id,split,label,f1..fF)."""
    return _load_json(path) if _is_json(path) else _load_csv(path)


def _load_csv(path) -> Dataset:
    ids, labels, split, rows = [], [], [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DomainError(f"{path}: empty file") from None
        if header[:3] != ["id", "split", "label"]:
            raise DomainError(f"{path}:1: header must start with id,split,label, got {header[:3]}")
        dim = len(header) - 3
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != dim + 3:
                raise DomainError(
                    f"{path}:{lineno}: expected {dim} feature values, got {len(row) - 3}"
                )
            ids.append(row[0])
            split.append(row[1])
            labels.append(row[2] or None)
            try:
                rows.append([float(v) for v in row[3:]])
            except ValueError as exc:
                raise DomainError(f"{path}:{lineno}: {exc}") from None
    if not ids:
        raise DomainError(f"{path}: no data rows")
    return Dataset(ids=ids, X=np.array(rows), labels=labels, split=split)


def _load_json(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"{path}:{exc.lineno}: {exc.msg}") from None
    if not isinstance(payload, list) or not payload:
        raise DomainError(f"{path}: expected a non-empty JSON list of items")
    ids, labels, split, rows = [], [], [], []
    dim = None
    for i, rec in enumerate(payload):
        if not isinstance(rec, dict):
            raise DomainError(f"{path}: item {i} must be an object, got {rec!r}")
        for key in ("id", "split", "features"):
            if key not in rec:
                raise DomainError(f"{path}: item {i} is missing {key!r}")
        feats = rec["features"]
        if not isinstance(feats, list):
            raise DomainError(
                f"{path}: item {rec['id']!r}: features must be a list, got {feats!r}"
            )
        if dim is None:
            dim = len(feats)
        elif len(feats) != dim:
            raise DomainError(
                f"{path}: item {rec['id']!r} has {len(feats)} features, expected {dim}"
            )
        label = rec.get("label")
        if not (label is None or isinstance(label, (str, int, float))):
            raise DomainError(
                f"{path}: item {rec['id']!r}: label must be a string or a number, got {label!r}"
            )
        ids.append(str(rec["id"]))
        split.append(rec["split"])
        # Only a missing or null label is missing; a number is kept as the
        # string CSV would give.
        labels.append(None if label is None else str(label))
        try:
            rows.append([float(v) for v in feats])
        except (TypeError, ValueError):
            raise DomainError(
                f"{path}: item {rec['id']!r}: features must be numbers, got {feats!r}"
            ) from None
    return Dataset(ids=ids, X=np.array(rows), labels=labels, split=split)


def save_dataset(dataset: Dataset, path):
    """Write a dataset as JSON (a ``.json`` path) or else CSV."""
    if not _is_json(path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "split", "label"] + [f"f{j+1}" for j in range(dataset.dim)])
            for i in range(dataset.n_items):
                writer.writerow(
                    [dataset.ids[i], dataset.split[i], dataset.labels[i] or ""]
                    + [repr(float(v)) for v in dataset.X[i]]
                )
    else:
        items = [
            {
                "id": dataset.ids[i],
                "split": dataset.split[i],
                "label": dataset.labels[i],
                "features": [float(v) for v in dataset.X[i]],
            }
            for i in range(dataset.n_items)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(items, fh, indent=1)
            fh.write("\n")


@dataclass(frozen=True)
class SynthConfig:
    """Gaussian-blob generator with disjoint train/test class sets."""

    n_train_classes: int
    n_test_classes: int
    dim: int
    min_class_size: int = 30
    max_class_size: int = 300
    separation: float = 3.0
    seed: int = 0

    def validate(self):
        """Every problem with this configuration, as human-readable strings."""
        errors = []
        if self.n_train_classes < 1:
            errors.append(f"need at least one train class, got {self.n_train_classes}")
        if self.n_test_classes < 1:
            errors.append(f"need at least one test class, got {self.n_test_classes}")
        if not (1 <= self.min_class_size <= self.max_class_size):
            errors.append("class sizes must satisfy 1 <= min <= max")
        if self.dim < 1:
            errors.append(f"dim must be >= 1, got {self.dim}")
        if not (math.isfinite(self.separation) and self.separation >= 0):
            errors.append(f"separation must be a finite number >= 0, got {self.separation}")
        if self.seed < 0:
            errors.append(f"seed must be a non-negative integer, got {self.seed}")
        return errors


CENTER_FLOOR_FRAC = 0.7
CENTER_RETRIES = 200


def _sample_centers(rng, group_counts, dim, scale, separation):
    """Gaussian centers with a minimum-distance floor within each group.

    Plain N(0, s^2 I) draws put two centers nearly on top of each other
    often enough that the classes are unrecoverable by any method, so a
    candidate closer than CENTER_FLOOR_FRAC * separation to an earlier
    center of the same split is redrawn (bounded retries keep the best
    attempt).  Cross-split distances are left unconstrained: train and
    test items are never clustered against each other.
    """
    total = sum(group_counts)
    if scale <= 0:
        return np.zeros((total, dim))
    floor = CENTER_FLOOR_FRAC * separation
    out = []
    for count in group_counts:
        centers = np.zeros((count, dim))
        for k in range(count):
            best, best_min = None, -np.inf
            for _ in range(CENTER_RETRIES):
                cand = rng.normal(0.0, scale, dim)
                dmin = (
                    np.inf
                    if k == 0
                    else float(np.sqrt(((centers[:k] - cand) ** 2).sum(axis=1)).min())
                )
                if dmin >= floor:
                    best = cand
                    break
                if dmin > best_min:
                    best, best_min = cand, dmin
            centers[k] = best
        out.append(centers)
    return np.vstack(out)


def synth_gaussian(config: SynthConfig) -> Dataset:
    """Unit-variance Gaussian classes around random centers.

    Train and test label sets are disjoint (the test classes are never
    seen during training), class sizes are uniform on [min, max], and
    centers are drawn from N(0, s^2 I) with s solved so the expected
    distance between two unconstrained centers equals ``separation`` (in
    within-class standard deviations); a minimum-distance floor keeps any
    two classes from coinciding, so the realized mean runs slightly high.
    """
    problems = config.validate()
    if problems:
        raise DomainError("; ".join(problems))
    rng = np.random.default_rng(config.seed)
    d = config.dim
    # E||c - c'|| = 2 s Gamma((d+1)/2) / Gamma(d/2) for c, c' ~ N(0, s^2 I).
    chi_mean = math.sqrt(2.0) * math.exp(math.lgamma((d + 1) / 2.0) - math.lgamma(d / 2.0))
    s = config.separation / (math.sqrt(2.0) * chi_mean)

    classes = [(f"T{k:02d}", "train") for k in range(config.n_train_classes)]
    classes += [(f"E{k:02d}", "test") for k in range(config.n_test_classes)]
    sizes = rng.integers(config.min_class_size, config.max_class_size + 1, len(classes))
    centers = _sample_centers(
        rng, (config.n_train_classes, config.n_test_classes), d, s, config.separation
    )

    ids, labels, split, rows = [], [], [], []
    for (label, part), size, center in zip(classes, sizes, centers):
        feats = center + rng.normal(0.0, 1.0, size=(size, d))
        for i in range(size):
            ids.append(f"{label}-{i:04d}")
            labels.append(label)
            split.append(part)
        rows.append(feats)
    return Dataset(ids=ids, X=np.vstack(rows), labels=labels, split=split)


def squared_mean_distance(sq_dists_ab, sq_dists_aa, sq_dists_bb):
    """Squared distance between subset means from pairwise squared distances.

    ||mean(A) - mean(B)||^2 equals the mean cross squared distance minus
    the within-subset sums scaled by 1/I^2 and 1/J^2, so coordinates are
    never needed.
    """
    ab = np.asarray(sq_dists_ab, float)
    aa = np.asarray(sq_dists_aa, float)
    bb = np.asarray(sq_dists_bb, float)
    if ab.ndim != 2:
        raise DomainError("cross-distance matrix must be 2-D")
    i, j = ab.shape
    if aa.shape != (i, i) or bb.shape != (j, j):
        raise DomainError(
            f"within-subset matrices must be ({i},{i}) and ({j},{j}), "
            f"got {aa.shape} and {bb.shape}"
        )
    iu_a = np.triu_indices(i, k=1)
    iu_b = np.triu_indices(j, k=1)
    return float(ab.mean() - aa[iu_a].sum() / i**2 - bb[iu_b].sum() / j**2)
