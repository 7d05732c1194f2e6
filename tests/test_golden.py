"""Golden fixture: `dpsc run` output bytes for fixed flags and one dataset.

The files under ``tests/golden/`` were written by `dpsc run` with exactly
the flags in ``CASES`` (one chain worker, ``DPSC_THREADS=1``) on
``tests/golden/data.csv``, itself written by ``dpsc synth --train-classes 3
--test-classes 2 --dim 3 --min-size 6 --max-size 10 --separation 5
--seed 11``.  A refactor of the sampler must reproduce them
byte for byte: the same candidate order, random stream and float rounding.
A change that alters any of these on purpose re-records every file with

    PYTHONPATH=src python tests/test_golden.py --record

which writes each run golden with the arguments the tests below use, and
``score.csv`` by the score test's procedure, and says so.  All of them were
re-recorded when the c pass took its uniforms, and m3's auxiliary
candidates, from its pass tables, drawn when each table is built (a new
random stream).  The ``*.chains.csv`` files were last re-recorded when the
log-gamma terms of the score went from ``scipy.special.gammaln`` to
``math.lgamma``: their ``joint_log_score`` column moved in its last bits
(at most 3.8e-16 relative); every other column and file stayed the same.
``m3.chains.csv`` and ``m3-shared.chains.csv`` were re-recorded again when
m3's conditional type prior took the centers' pair sum as K times their
scatter about their mean, not as a sum over pairs: ``joint_log_score``
moved by at most 3.1e-16 relative, and nothing else changed.

``tests/golden/cdp.*`` pin the unsupervised ``cdp`` baseline (one frozen
identity type, labels ignored) next to an m1 run without alpha resampling
(``CDP``).

``tests/golden/large-*`` pin runs at large cluster counts: every test item
starts as its own cluster, so the first sweep's early updates choose among
well over a hundred candidates, and clusters open and close mid-sweep.  The
data, ``tests/golden/large.csv``, was written by ``dpsc synth
--train-classes 4 --test-classes 40 --dim 4 --min-size 2 --max-size 5
--separation 6 --seed 13``, and each case is run on it with the flags in
``LARGE_CASES`` plus ``COMMON``.

``tests/golden/large-m1.kmeans.tsv`` pins the oracle-k k-means baseline:
the ``large-m1`` run with ``KMEANS`` added, whose other outputs are the
``large-m1`` goldens.

``tests/golden/score.csv`` pins `dpsc score` the same way: the gold
partition is the test rows of ``data.csv`` (id, label), and the hypotheses
are the ``*.pred.tsv`` files of the five ``CASES``, named relative to
``tests/golden/``.
"""

import csv
import os
import sys
import tempfile
from pathlib import Path

import pytest

from dpsc.cli import main

GOLDEN = Path(__file__).parent / "golden"
COMMON = ["--chains", "2", "--iters", "24", "--seed", "5", "--resample-alpha"]
CASES = {
    "m1": ["--variant", "m1"],
    "m2": ["--variant", "m2"],
    "m3": ["--variant", "m3"],
    "m1-shared": ["--variant", "m1", "--share-train-test"],
    "m3-shared": ["--variant", "m3", "--share-train-test"],
}
LARGE_CASES = {
    "large-m1": ["--variant", "m1"],
    "large-m2": ["--variant", "m2"],
}
KMEANS = ["--baseline", "kmeans"]
CDP = ["--variant", "m1", "--chains", "2", "--iters", "24", "--seed", "5", "--baseline", "cdp"]
RUN_SUFFIXES = (".pred.tsv", ".chains.csv")


def run_args(case, prefix):
    """`dpsc run` arguments of a golden case, writing to ``prefix``."""
    if case == "cdp":
        data, flags = "data.csv", CDP
    elif case in LARGE_CASES:
        data, flags = "large.csv", LARGE_CASES[case] + COMMON
    else:
        data, flags = "data.csv", CASES[case] + COMMON
    return ["run", str(GOLDEN / data), *flags, "-o", str(prefix)]


@pytest.mark.parametrize("case", sorted(CASES) + sorted(LARGE_CASES))
def test_run_outputs_match_golden_bytes(case, tmp_path, monkeypatch):
    monkeypatch.setenv("DPSC_THREADS", "1")
    prefix = tmp_path / case
    assert main(run_args(case, prefix)) == 0
    for suffix in RUN_SUFFIXES:
        got = Path(f"{prefix}{suffix}").read_bytes()
        assert got == (GOLDEN / f"{case}{suffix}").read_bytes(), f"{case}{suffix} differs"


def test_cdp_baseline_outputs_match_golden_bytes(tmp_path, monkeypatch):
    monkeypatch.setenv("DPSC_THREADS", "1")
    prefix = tmp_path / "cdp"
    assert main(run_args("cdp", prefix)) == 0
    for suffix in (*RUN_SUFFIXES, ".cdp.tsv"):
        got = Path(f"{prefix}{suffix}").read_bytes()
        assert got == (GOLDEN / f"cdp{suffix}").read_bytes(), f"cdp{suffix} differs"


def test_kmeans_baseline_output_matches_golden_bytes(tmp_path, monkeypatch):
    monkeypatch.setenv("DPSC_THREADS", "1")
    prefix = tmp_path / "large-m1"
    assert main([*run_args("large-m1", prefix), *KMEANS]) == 0
    for suffix in (*RUN_SUFFIXES, ".kmeans.tsv"):
        got = Path(f"{prefix}{suffix}").read_bytes()
        assert got == (GOLDEN / f"large-m1{suffix}").read_bytes(), f"large-m1{suffix} differs"


def write_gold_partition(path):
    """The test rows of ``data.csv`` as an ``id<TAB>label`` partition file."""
    with open(GOLDEN / "data.csv", newline="") as fh, open(path, "w", newline="\n") as out:
        for row in csv.DictReader(fh):
            if row["split"] == "test":
                out.write(f"{row['id']}\t{row['label']}\n")


def score(gold, out):
    """`dpsc score` of the five ``CASES`` predictions against ``gold``; run
    from ``tests/golden/``, so the hypotheses are named relative to it."""
    hyps = [f"{case}.pred.tsv" for case in sorted(CASES)]
    return main(["score", "--gold", str(gold), *hyps, "-o", str(out)])


def test_score_output_matches_golden_bytes(tmp_path, monkeypatch):
    gold = tmp_path / "gold.tsv"
    write_gold_partition(gold)
    monkeypatch.chdir(GOLDEN)
    out = tmp_path / "score.csv"
    assert score(gold, out) == 0
    assert out.read_bytes() == (GOLDEN / "score.csv").read_bytes()


def record():
    """Rewrite every golden output: the run cases (large-m1 with its k-means
    baseline), cdp, then score.csv from the new predictions."""
    os.environ["DPSC_THREADS"] = "1"
    for case in [*sorted(CASES), *sorted(LARGE_CASES), "cdp"]:
        extra = KMEANS if case == "large-m1" else []
        if main([*run_args(case, GOLDEN / case), *extra]) != 0:
            raise SystemExit(f"dpsc run failed for {case}")
    with tempfile.TemporaryDirectory() as tmp:
        gold = Path(tmp) / "gold.tsv"
        write_gold_partition(gold)
        os.chdir(GOLDEN)
        if score(gold, GOLDEN / "score.csv") != 0:
            raise SystemExit("dpsc score failed")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python tests/test_golden.py --record")
    record()
