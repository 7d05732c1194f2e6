"""Output checks and an independent scoring oracle.

The oracle recomputes every column of ``dpsc score`` from label arrays with
numpy and scipy, sharing no code with ``dpsc.metrics``: pair counts and
entropies from a contingency table, and the cluster edit distance's merge
count from ``scipy.sparse.csgraph.maximum_bipartite_matching``.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

SCORE_COLUMNS = ["name", "ri", "precision", "recall", "f_score", "ced", "nes", "vi", "nvi", "ced_hg"]
CHAINS_HEADER = ["chain", "iteration", "joint_log_score", "n_publications", "n_types"]
CURVE_HEADER = ["n", "dp_mean", "dp_lo", "dp_hi", "emp_mean", "emp_lo", "emp_hi"]
SCORE_TOLERANCE = 1e-9


def _codes(labels):
    return np.unique(np.asarray(labels), return_inverse=True)[1].ravel()


def _pairs(counts):
    counts = counts.astype(np.int64)
    return int((counts * (counts - 1) // 2).sum())


def _edit_distance(to_labels, from_labels):
    """Moves plus merges turning the ``from`` partition into the ``to`` one."""
    joint = np.stack([from_labels, to_labels], axis=1)
    cells, overlap = np.unique(joint, axis=0, return_counts=True)
    n_from = int(from_labels.max()) + 1
    best = np.zeros(n_from, dtype=np.int64)
    np.maximum.at(best, cells[:, 0], overlap)
    moves = len(from_labels) - int(best.sum())
    tied = overlap == best[cells[:, 0]]
    graph = csr_matrix(
        (np.ones(int(tied.sum())), (cells[tied, 0], cells[tied, 1])),
        shape=(n_from, int(to_labels.max()) + 1),
    )
    matched = int((maximum_bipartite_matching(graph, perm_type="column") >= 0).sum())
    return moves + n_from - matched


def score_row(gold_labels, hyp_labels):
    """Every ``dpsc score`` column (except name) for one hypothesis."""
    g, h = _codes(gold_labels), _codes(hyp_labels)
    n = len(g)
    size_g, size_h = np.bincount(g), np.bincount(h)
    joint = np.unique(g.astype(np.int64) * (int(h.max()) + 1) + h, return_counts=True)[1]
    n11 = _pairs(joint)
    n10 = _pairs(size_g) - n11
    n01 = _pairs(size_h) - n11
    n00 = n * (n - 1) // 2 - n11 - n10 - n01
    p = n11 / (n11 + n01) if n11 + n01 > 0 else 1.0
    r = n11 / (n11 + n10) if n11 + n10 > 0 else 1.0
    f = 2.0 * p * r / (p + r) if p + r > 0 else 0.0

    def entropy(counts):
        q = counts[counts > 0] / n
        return float(-(q * np.log(q)).sum())

    vi = max(0.0, 2.0 * entropy(joint) - entropy(size_g) - entropy(size_h))
    ced_gh = _edit_distance(g, h)
    ced_hg = _edit_distance(h, g)
    return {
        "ri": 2.0 * (n11 + n00) / (n * (n - 1)),
        "precision": p,
        "recall": r,
        "f_score": f,
        "ced": ced_gh / n,
        "nes": 1.0 - (ced_gh + ced_hg) / (2.0 * n),
        "vi": vi,
        "nvi": 1.0 - vi / math.log(n),
        "ced_hg": ced_hg / n,
    }


def read_assignment(path):
    """item -> cluster from a partition TSV, or None if malformed."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 2 or parts[0] in out:
                return None
            out[parts[0]] = parts[1]
    return out


def prediction_problems(path, test_ids):
    """Why the partition file fails to cover exactly ``test_ids``."""
    try:
        assignment = read_assignment(path)
    except OSError as exc:
        return [f"{path.name}: {exc}"]
    if assignment is None:
        return [f"{path.name}: malformed or duplicate line"]
    if set(assignment) != set(test_ids):
        return [f"{path.name}: covers {len(assignment)} ids, not the {len(test_ids)} test ids"]
    return []


def chains_problems(path, expected_rows):
    """Why ``*.chains.csv`` is malformed or holds a non-finite score."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return [f"{path.name}: {exc}"]
    if not rows or rows[0] != CHAINS_HEADER:
        return [f"{path.name}: unexpected header"]
    body = rows[1:]
    if len(body) != expected_rows:
        return [f"{path.name}: {len(body)} records, expected {expected_rows}"]
    if not all(math.isfinite(float(row[2])) for row in body):
        return [f"{path.name}: non-finite joint_log_score"]
    return []


def score_problems(path, expected):
    """Compare a ``dpsc score`` CSV with {hypothesis path: oracle row}."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return [f"{path.name}: {exc}"]
    if not rows or rows[0] != SCORE_COLUMNS:
        return [f"{path.name}: unexpected header"]
    got = {row[0]: row[1:] for row in rows[1:]}
    if set(got) != set(expected):
        return [f"{path.name}: rows {sorted(got)}, expected {sorted(expected)}"]
    problems = []
    for name, want in expected.items():
        for col, text in zip(SCORE_COLUMNS[1:], got[name]):
            value = float(text)
            if not abs(value - want[col]) <= SCORE_TOLERANCE * max(1.0, abs(want[col])):
                problems.append(f"{path.name}: {name} {col}={value!r}, oracle {want[col]!r}")
    return problems


def curve_problems(path, expected_ns):
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return [f"{path.name}: {exc}"]
    if not rows or rows[0] != CURVE_HEADER:
        return [f"{path.name}: unexpected header"]
    body = rows[1:]
    if [int(row[0]) for row in body] != list(expected_ns):
        return [f"{path.name}: N grid differs from the requested one"]
    if not all(math.isfinite(float(x)) for row in body for x in row[1:]):
        return [f"{path.name}: non-finite curve value"]
    return []
