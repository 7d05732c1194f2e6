"""Golden fixture: `dpsc run` output bytes for fixed flags and one dataset.

The files under ``tests/golden/`` were written by `dpsc run` with exactly
the flags in ``CASES`` (one chain worker, ``DPSC_THREADS=1``) on
``tests/golden/data.csv``, itself written by ``dpsc synth --train-classes 3
--test-classes 2 --dim 3 --min-size 6 --max-size 10 --separation 5
--seed 11``.  A refactor of the sampler must reproduce them
byte for byte: the same candidate order, random stream and float rounding.
A change that alters any of these on purpose regenerates the files with
the same flags and says so.  ``m3*`` (and with them ``score.csv``) were
last regenerated when m3 moved to exact conjugate refreshes, one
retained-candidate step for a center under the conditional type prior,
the one-of-M auxiliary-candidate rule, the tilted new-cluster weight and
m1's closed-form d update under the types' prior; no other file changed
then.

``tests/golden/cdp.*`` pin the unsupervised ``cdp`` baseline (one frozen
identity type, labels ignored) next to an m1 run without alpha resampling:
``dpsc run tests/golden/data.csv --variant m1 --chains 2 --iters 24
--seed 5 --baseline cdp -o tests/golden/cdp``.

``tests/golden/large-*`` pin runs at large cluster counts: every test item
starts as its own cluster, so the first sweep's early updates choose among
well over a hundred candidates, and clusters open and close mid-sweep.  The
data, ``tests/golden/large.csv``, was written by ``dpsc synth
--train-classes 4 --test-classes 40 --dim 4 --min-size 2 --max-size 5
--separation 6 --seed 13``, and each case by ``dpsc run
tests/golden/large.csv`` with the flags in ``LARGE_CASES`` plus ``COMMON``.

``tests/golden/score.csv`` pins `dpsc score` the same way: the gold
partition is the test rows of ``data.csv`` (id, label), and the hypotheses
are the ``*.pred.tsv`` files of the five ``CASES``, named relative to
``tests/golden/``.
"""

import csv
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


@pytest.mark.parametrize("case", sorted(CASES) + sorted(LARGE_CASES))
def test_run_outputs_match_golden_bytes(case, tmp_path, monkeypatch):
    monkeypatch.setenv("DPSC_THREADS", "1")
    prefix = tmp_path / case
    data, flags = ("large.csv", LARGE_CASES[case]) if case in LARGE_CASES else ("data.csv", CASES[case])
    args = ["run", str(GOLDEN / data), *flags, *COMMON, "-o", str(prefix)]
    assert main(args) == 0
    for suffix in (".pred.tsv", ".chains.csv"):
        got = Path(f"{prefix}{suffix}").read_bytes()
        assert got == (GOLDEN / f"{case}{suffix}").read_bytes(), f"{case}{suffix} differs"


def test_cdp_baseline_outputs_match_golden_bytes(tmp_path, monkeypatch):
    monkeypatch.setenv("DPSC_THREADS", "1")
    prefix = tmp_path / "cdp"
    args = ["run", str(GOLDEN / "data.csv"), "--variant", "m1", "--chains", "2", "--iters", "24",
            "--seed", "5", "--baseline", "cdp", "-o", str(prefix)]
    assert main(args) == 0
    for suffix in (".pred.tsv", ".chains.csv", ".cdp.tsv"):
        got = Path(f"{prefix}{suffix}").read_bytes()
        assert got == (GOLDEN / f"cdp{suffix}").read_bytes(), f"cdp{suffix} differs"


def write_gold_partition(path):
    """The test rows of ``data.csv`` as an ``id<TAB>label`` partition file."""
    with open(GOLDEN / "data.csv", newline="") as fh, open(path, "w", newline="\n") as out:
        for row in csv.DictReader(fh):
            if row["split"] == "test":
                out.write(f"{row['id']}\t{row['label']}\n")


def test_score_output_matches_golden_bytes(tmp_path, monkeypatch):
    gold = tmp_path / "gold.tsv"
    write_gold_partition(gold)
    monkeypatch.chdir(GOLDEN)
    out = tmp_path / "score.csv"
    hyps = [f"{case}.pred.tsv" for case in sorted(CASES)]
    assert main(["score", "--gold", str(gold), *hyps, "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "score.csv").read_bytes()
