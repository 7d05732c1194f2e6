"""Golden fixture: `dpsc run` output bytes for fixed flags and one dataset.

The files under ``tests/golden/`` were written by `dpsc run` with exactly
the flags in ``CASES`` (one chain worker, ``DPSC_THREADS=1``) on
``tests/golden/data.csv``, itself written by ``dpsc synth --train-classes 3
--test-classes 2 --dim 3 --min-size 6 --max-size 10 --separation 5
--seed 11``.  A refactor of the sampler must reproduce them
byte for byte: the same candidate order, random stream and float rounding.
A change that alters any of these on purpose regenerates the files with
the same flags and says so.

``tests/golden/cdp.*`` pin the unsupervised ``cdp`` baseline (one frozen
identity type, labels ignored) next to an m1 run without alpha resampling:
``dpsc run tests/golden/data.csv --variant m1 --chains 2 --iters 24
--seed 5 --baseline cdp -o tests/golden/cdp``.

``tests/golden/score.csv`` pins `dpsc score` the same way: the gold
partition is the test rows of ``data.csv`` (id, label), and the hypotheses
are the five ``*.pred.tsv`` files above, named relative to
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


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_outputs_match_golden_bytes(case, tmp_path, monkeypatch):
    monkeypatch.setenv("DPSC_THREADS", "1")
    prefix = tmp_path / case
    args = ["run", str(GOLDEN / "data.csv"), *CASES[case], *COMMON, "-o", str(prefix)]
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
