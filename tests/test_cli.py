import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsc.cli import SCORE_COLUMNS, main
from dpsc.data import Dataset, SynthConfig, load_dataset, save_dataset, standardize, synth_gaussian
from dpsc.metrics import full_report
from dpsc.partition import Partition, read_partition_file, write_partition_file


def make_dataset_file(tmp_path, seed=0, name="data.csv"):
    ds = synth_gaussian(
        SynthConfig(2, 2, dim=2, min_class_size=6, max_class_size=8, separation=6.0, seed=seed)
    )
    path = tmp_path / name
    save_dataset(ds, path)
    return path, ds


def _subset(ds, keep):
    return Dataset(ids=[ds.ids[i] for i in keep], X=ds.X[keep],
                   labels=[ds.labels[i] for i in keep], split=[ds.split[i] for i in keep])


# ------------------------------------------------------------------ usage


@pytest.mark.parametrize("args", [
    ["synth", "--train-classes", "1", "--test-classes", "1", "--dim", "1",
     "--separation", "-inf", "-o", "d.csv"],
    ["synth", "--train-classes", "1", "--test-classes", "1", "--dim", "x", "-o", "d.csv"],
    ["run", "data.csv", "-o"],
    ["run", "data.csv", "--variant", "m9", "-o", "out"],
    ["score", "--gold"],
    ["score", "--gold", "gold.tsv", "h.tsv", "--format", "xml"],
    ["dpfit", "pool.tsv", "--points"],
    ["dpfit", "pool.tsv", "--points", "x", "-o", "c.csv"],
    ["bogus"],
    [],
], ids=["synth-missing-value", "synth-bad-value", "run-missing-value", "run-bad-choice",
        "score-missing-value", "score-bad-choice", "dpfit-missing-value", "dpfit-bad-value",
        "bad-command", "no-command"])
def test_usage_errors_are_one_error_2_line(args, capsys):
    assert main(args) == 2
    cap = capsys.readouterr()
    (line,) = cap.err.splitlines()
    assert line.startswith("ERROR:2:dpsc") and cap.out == ""


# ------------------------------------------------------------------ synth


def test_synth_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    flags = ["synth", "--train-classes", "3", "--test-classes", "2", "--dim", "4",
             "--min-size", "30", "--max-size", "300", "--seed", "1"]
    assert main(flags + ["-o", str(a)]) == 0
    assert main(flags + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    out = capsys.readouterr().out
    assert "class" in out


def test_synth_sizes_in_range(tmp_path):
    path = tmp_path / "d.csv"
    assert main(["synth", "--train-classes", "2", "--test-classes", "2", "--dim", "2",
                 "--min-size", "30", "--max-size", "300", "--seed", "3",
                 "-o", str(path)]) == 0
    from dpsc.data import load_dataset

    ds = load_dataset(path)
    train = {ds.labels[i] for i in ds.indices("train")}
    test = {ds.labels[i] for i in ds.indices("test")}
    assert train.isdisjoint(test)
    for lab in train | test:
        assert 30 <= sum(1 for l in ds.labels if l == lab) <= 300


def test_synth_invalid_flags_exit_2(tmp_path, capsys):
    code = main(["synth", "--train-classes", "0", "--test-classes", "1", "--dim", "2",
                 "-o", str(tmp_path / "x.csv")])
    assert code == 2
    assert "ERROR:2:" in capsys.readouterr().err


def test_synth_lists_every_problem_before_generating(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("dpsc.cli.synth_gaussian", lambda *a: calls.append(a))
    code = main(["synth", "--train-classes", "0", "--test-classes", "0", "--dim", "0",
                 "-o", str(tmp_path / "nodir" / "x.csv")])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert all(line.startswith("ERROR:2:") for line in lines)
    for expected in ("train class", "test class", "dim", "does not exist"):
        assert sum(expected in line for line in lines) == 1, expected
    assert len(lines) == 4
    assert calls == []


@pytest.mark.parametrize("separation", ["nan", "inf"])
def test_synth_non_finite_separation_listed_with_output_error(tmp_path, capsys, separation):
    code = main(["synth", "--train-classes", "1", "--test-classes", "1", "--dim", "1",
                 "--separation", separation, "-o", str(tmp_path / "nodir" / "x.csv")])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and all(line.startswith("ERROR:2:") for line in lines)
    assert "separation" in lines[0] and "does not exist" in lines[1]


def test_synth_separation_near_the_float_limit_warns_nothing(tmp_path):
    # Center distances are compared in units of the center scale, so no
    # square overflows; a center drawn past the float range is an ERROR:2:
    # exit with nothing written (seed 2 here), never a numpy warning.
    codes = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(6):
            out = str(tmp_path / f"d{seed}.csv")
            code = _exit_0_or_2(["synth", "--train-classes", "2", "--test-classes", "2", "--dim",
                                 "1", "--min-size", "1", "--max-size", "3", "--separation=1e308",
                                 "--seed", str(seed)], out)
            if code == 0:
                assert np.isfinite(load_dataset(out).X).all()
            codes.add(code)
    assert codes == {0, 2}


@pytest.mark.parametrize("command", ["synth", "dpfit"])
def test_negative_seed_exit_2_before_any_work(tmp_path, capsys, monkeypatch, command):
    calls = []
    monkeypatch.setattr("dpsc.cli.synth_gaussian", lambda *a: calls.append(a))
    monkeypatch.setattr("dpsc.cli.appropriateness_curve", lambda *a: calls.append(a))
    write_partition_file(Partition({f"i{k}": k % 3 for k in range(12)}), tmp_path / "pool.tsv")
    head = {"synth": ["synth", "--train-classes", "1", "--test-classes", "1", "--dim", "1"],
            "dpfit": ["dpfit", str(tmp_path / "pool.tsv")]}[command]
    out = tmp_path / "out.csv"
    assert main(head + ["--seed", "-1", "-o", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("ERROR:2:") and "seed must be a non-negative integer" in line
    assert calls == [] and not out.exists()


def test_synth_json_output_runs(tmp_path):
    data = tmp_path / "d.json"
    assert main(["synth", "--train-classes", "2", "--test-classes", "2", "--dim", "2",
                 "--min-size", "5", "--max-size", "8", "-o", str(data)]) == 0
    assert load_dataset(data) == synth_gaussian(
        SynthConfig(2, 2, dim=2, min_class_size=5, max_class_size=8))
    assert main(["run", str(data), "--iters", "4", "-o", str(tmp_path / "r")]) == 0


def _exit_0_or_2(args, out, runtime=None):
    """main(args + ["-o", out]), which must exit 0, or 2 with every stderr
    line an ERROR:2: one and nothing written to ``out``.  Given ``runtime``,
    it may also exit 1 with one ERROR:1: line that holds ``runtime``."""
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(args + ["-o", out])
    assert code in (0, 2) or (runtime is not None and code == 1)
    if code:
        lines = err.getvalue().splitlines()
        assert lines and all(line.startswith(f"ERROR:{code}:") for line in lines)
        assert code == 2 or (len(lines) == 1 and runtime in lines[0])
        assert not os.path.exists(out)
    return code


@st.composite
def flag_args(draw, valid, invalid):
    """``--flag=value`` arguments drawn from the ``valid`` strategies, with
    (about one in three) one or two of them drawn from ``invalid``'s."""
    flags = {k: draw(v) for k, v in valid.items()}
    if draw(st.integers(0, 2)) == 0:
        for k in draw(st.lists(st.sampled_from(sorted(invalid)), min_size=1, max_size=2,
                               unique=True)):
            flags[k] = draw(invalid[k])
    return [f"{k}={v}" for k, v in flags.items()]


SYNTH_FLAGS = flag_args(
    {"--train-classes": st.integers(1, 2), "--test-classes": st.integers(1, 2),
     "--dim": st.integers(1, 3), "--min-size": st.integers(1, 3), "--max-size": st.integers(3, 5),
     "--separation": st.sampled_from(["0", "2.5", "1e300", "1e308"]), "--seed": st.integers(0, 3)},
    {"--train-classes": st.integers(-1, 0), "--test-classes": st.integers(-1, 0),
     "--dim": st.integers(-1, 0), "--min-size": st.sampled_from([-1, 0, 6]),
     "--separation": st.sampled_from(["nan", "inf", "-inf", "-1"]), "--seed": st.integers(-2, -1)},
)


@settings(max_examples=100, deadline=None, database=None)
@given(SYNTH_FLAGS, st.sampled_from(["d.csv", "d.json", "nodir/d.csv"]))
def test_synth_exit_codes_on_drawn_flags(flags, name):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, name)
        if _exit_0_or_2(["synth", *flags], out) == 0:
            load_dataset(out)


# -------------------------------------------------------------------- run


def test_run_deterministic_outputs(tmp_path):
    data, _ = make_dataset_file(tmp_path)
    flags = [
        "run", str(data), "--variant", "m1", "--chains", "2", "--iters", "40",
        "--burn-in", "10", "--seed", "7", "--resample-alpha",
    ]
    assert main(flags + ["-o", str(tmp_path / "r1")]) == 0
    assert main(flags + ["-o", str(tmp_path / "r2")]) == 0
    for suffix in (".pred.tsv", ".chains.csv"):
        assert (tmp_path / f"r1{suffix}").read_bytes() == (tmp_path / f"r2{suffix}").read_bytes()


def test_run_thread_count_does_not_change_results(tmp_path, monkeypatch, capsys):
    # With a pool the in-process baselines run beside the chains; the files
    # and the lines that name them are the same as without one.
    data, _ = make_dataset_file(tmp_path, seed=1)
    flags = ["run", str(data), "--variant", "m1", "--chains", "4", "--iters", "20",
             "--seed", "2", "--baseline", "kmeans,coarse,fine", "-o"]
    stdout = {}
    for threads in ("1", "4"):
        monkeypatch.setenv("DPSC_THREADS", threads)
        assert main(flags + [str(tmp_path / f"t{threads}")]) == 0
        stdout[threads] = capsys.readouterr().out.replace(f"t{threads}.", "t.")
    assert stdout["1"] == stdout["4"]
    assert [line.split()[1].rsplit(".", 2)[1] for line in stdout["1"].splitlines()] == [
        "pred", "kmeans", "coarse", "fine"]
    for suffix in (".pred.tsv", ".chains.csv", ".kmeans.tsv", ".coarse.tsv", ".fine.tsv"):
        assert (tmp_path / f"t1{suffix}").read_bytes() == (tmp_path / f"t4{suffix}").read_bytes()


def test_run_m3_and_baselines(tmp_path):
    data, ds = make_dataset_file(tmp_path, seed=2)
    assert main(["run", str(data), "--variant", "m3", "--chains", "1", "--iters", "10",
                 "--seed", "0", "--baseline", "coarse,fine,kmeans,cdp",
                 "-o", str(tmp_path / "m3")]) == 0
    test_ids = {ds.ids[i] for i in ds.indices("test")}
    for name in ("pred", "coarse", "fine", "kmeans", "cdp"):
        part = read_partition_file(tmp_path / f"m3.{name}.tsv")
        assert part.items() == test_ids
    assert read_partition_file(tmp_path / "m3.coarse.tsv").n_clusters == 1
    assert read_partition_file(tmp_path / "m3.fine.tsv").n_clusters == len(test_ids)


def test_run_validation_lists_all_errors(tmp_path, capsys):
    data, _ = make_dataset_file(tmp_path, seed=3)
    code = main(["run", str(data), "--chains", "0", "--iters", "0",
                 "--baseline", "bogus", "-o", str(tmp_path / "v")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("ERROR:2:") >= 3
    assert "bogus" in err


def test_run_negative_seed_exit_2(tmp_path, capsys):
    data, _ = make_dataset_file(tmp_path, seed=3)
    code = main(["run", str(data), "--seed", "-1", "-o", str(tmp_path / "s")])
    assert code == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["data.csv", "data.json"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_run_non_finite_feature_exit_2(tmp_path, capsys, name, bad):
    ds = synth_gaussian(SynthConfig(2, 2, dim=2, min_class_size=6, max_class_size=8, seed=0))
    ds.X[5, 1] = bad
    save_dataset(ds, tmp_path / name)
    code = main(["run", str(tmp_path / name), "-o", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "ERROR:2:" in err and repr(ds.ids[5]) in err and "finite" in err


@pytest.mark.parametrize("bad,named", [
    (1, "item 1"),
    ({"id": "b", "split": "test", "features": 5}, "'b'"),
    ({"id": "b", "split": "test", "features": ["q"]}, "'b'"),
])
def test_run_malformed_json_item_exit_2(tmp_path, capsys, bad, named):
    good = {"id": "a", "split": "train", "label": "x", "features": [0.5]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([good, bad]))
    code = main(["run", str(path), "-o", str(tmp_path / "x")])
    assert code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("ERROR:2:") and named in line


@pytest.mark.parametrize("name,text,bad", [
    ("tab.csv", 'id,split,label,f1\na,train,x,0\nb,train,y,1\n"te\t0",test,,2\n', "'te\\t0'"),
    ("nl.csv", 'id,split,label,f1\na,train,x,0\nb,train,y,1\n"te\n2",test,,2\n', "'te\\n2'"),
    ("tab.json", json.dumps([{"id": i, "split": s, "label": i, "features": [k]}
                             for k, (i, s) in enumerate([("a", "train"), ("b", "train"),
                                                         ("te\t0", "test")])]), "'te\\t0'"),
], ids=["csv-tab", "csv-newline", "json-tab"])
def test_run_id_the_partition_format_cannot_hold_exit_2(tmp_path, capsys, name, text, bad):
    (tmp_path / name).write_text(text)
    code = main(["run", str(tmp_path / name), "--iters", "4", "--chains", "1",
                 "-o", str(tmp_path / "out")])
    assert code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("ERROR:2:") and bad in line
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]


@pytest.mark.parametrize("name,text", [
    ("data.csv", "id,split,label\na,train,x\nb,train,y\nc,test,\n"),
    ("data.json", json.dumps([{"id": i, "split": "train", "label": i, "features": []}
                              for i in "ab"])),
])
def test_run_without_features_exit_2(tmp_path, capsys, monkeypatch, name, text):
    (tmp_path / name).write_text(text)
    calls = []
    monkeypatch.setattr("dpsc.cli.run_chains", lambda *a, **k: calls.append(a))
    code = main(["run", str(tmp_path / name), "-o", str(tmp_path / "x")])
    assert code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("ERROR:2:") and "feature" in line
    assert calls == [] and not (tmp_path / "x.pred.tsv").exists()


def test_run_missing_output_dir_fails_before_sampling(tmp_path, capsys, monkeypatch):
    data, _ = make_dataset_file(tmp_path, seed=3)
    calls = []
    monkeypatch.setattr("dpsc.cli.run_chains", lambda *a, **k: calls.append(a))
    code = main(["run", str(data), "--iters", "5", "-o", str(tmp_path / "no" / "such" / "p")])
    assert code == 2
    assert "does not exist" in capsys.readouterr().err
    assert calls == []


def test_run_lists_dataset_and_flag_errors_together(tmp_path, capsys, monkeypatch):
    ds = synth_gaussian(SynthConfig(2, 2, dim=2, min_class_size=6, max_class_size=8, seed=0))
    ds.X[5, 1] = np.nan
    save_dataset(ds, tmp_path / "nan.csv")
    calls = []
    monkeypatch.setattr("dpsc.cli.run_chains", lambda *a, **k: calls.append(a))
    code = main(["run", str(tmp_path / "nan.csv"), "--chains", "0", "--iters", "0",
                 "--seed", "-1", "-o", str(tmp_path / "nodir" / "x")])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert all(line.startswith("ERROR:2:") for line in lines)
    for expected in ("finite", "does not exist", "iterations", "n_chains", "seed"):
        assert sum(expected in line for line in lines) == 1, expected
    assert len(lines) == 5
    assert calls == []


def test_run_lists_standardize_and_thread_errors_with_flag_errors(tmp_path, capsys, monkeypatch):
    ds = synth_gaussian(SynthConfig(1, 2, dim=2, min_class_size=6, max_class_size=8, seed=0))
    keep = [int(ds.indices("train")[0]), *ds.indices("test").tolist()]
    save_dataset(_subset(ds, keep), tmp_path / "one_train.csv")
    calls = []
    monkeypatch.setattr("dpsc.cli.run_chains", lambda *a, **k: calls.append(a))
    monkeypatch.setenv("DPSC_THREADS", "abc")
    code = main(["run", str(tmp_path / "one_train.csv"), "--chains", "0",
                 "-o", str(tmp_path / "x")])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert all(line.startswith("ERROR:2:") for line in lines)
    for expected in ("n_chains", "need at least 2 items", "DPSC_THREADS"):
        assert sum(expected in line for line in lines) == 1, expected
    assert len(lines) == 3
    assert calls == []


@pytest.mark.parametrize(
    "flags",
    [["--variant", "m1"], ["--variant", "m2"], ["--variant", "m3"], ["--baseline", "cdp"]],
    ids=["m1", "m2", "m3", "cdp"],
)
def test_run_with_one_test_item(tmp_path, flags):
    # The test item's own cluster is its only candidate, and taking the item
    # out deletes it: each c update starts from no candidate at all.
    ds = synth_gaussian(SynthConfig(2, 1, dim=2, min_class_size=6, max_class_size=8, seed=0))
    keep = [*ds.indices("train").tolist(), int(ds.indices("test")[0])]
    save_dataset(_subset(ds, keep), tmp_path / "one_test.csv")
    assert main(["run", str(tmp_path / "one_test.csv"), "--chains", "1", "--iters", "6",
                 *flags, "-o", str(tmp_path / "o")]) == 0
    name = "cdp" if "--baseline" in flags else "pred"
    assert read_partition_file(tmp_path / f"o.{name}.tsv").n_clusters == 1


def test_run_names_the_failed_chain(tmp_path, capsys, monkeypatch):
    import dpsc.sampler

    real = dpsc.sampler.run_chain

    def fail_chain_1(dataset, config, i):
        if i == 1:
            raise ValueError("boom")
        return real(dataset, config, i)

    monkeypatch.setenv("DPSC_THREADS", "1")
    monkeypatch.setattr(dpsc.sampler, "run_chain", fail_chain_1)
    data, _ = make_dataset_file(tmp_path, seed=3)
    code = main(["run", str(data), "--chains", "2", "--iters", "2", "-o", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["ERROR:1:chain 1: boom"]


def test_run_missing_dataset_exit_2(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.csv"), "-o", str(tmp_path / "x")])
    assert code == 2
    assert "ERROR:2:" in capsys.readouterr().err


def test_run_json_numeric_labels(tmp_path, capsys):
    # A label 0 is a label, and a number reads as the string CSV would give.
    items = [{"id": f"a{i}", "split": "train", "label": i % 2, "features": [i % 2 + 0.1 * i]}
             for i in range(8)]
    items += [{"id": f"t{i}", "split": "test", "features": [3.0 + 0.1 * i]} for i in range(4)]
    path = tmp_path / "lab.json"
    path.write_text(json.dumps(items))
    assert load_dataset(path).labels == ["0", "1"] * 4 + [None] * 4
    assert main(["run", str(path), "--iters", "4", "-o", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    assert read_partition_file(tmp_path / "out.pred.tsv").n_items == 4


def _bad_bytes(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes("id,split,label,f1\nb\xe9,train,x,0\n".encode("latin-1"))
    return path


@pytest.mark.parametrize("case", [
    "dataset-not-utf8", "partition-not-utf8", "dataset-dir", "gold-dir", "hypothesis-dir",
    "score-output-dir",
])
def test_unreadable_input_exit_2(tmp_path, capsys, case):
    data, _ = make_dataset_file(tmp_path, seed=3)
    write_parts(tmp_path)
    folder = tmp_path / "folder"
    folder.mkdir()
    gold, hyp, out = tmp_path / "gold.tsv", tmp_path / "fine.tsv", tmp_path / "s.csv"
    if case == "dataset-not-utf8":
        args, named = ["run", str(_bad_bytes(tmp_path)), "-o", str(tmp_path / "x")], "latin1"
    elif case == "dataset-dir":
        args, named = ["run", str(folder), "-o", str(tmp_path / "x")], "folder"
    else:
        if case == "partition-not-utf8":
            hyp = _bad_bytes(tmp_path)
        elif case == "gold-dir":
            gold = folder
        elif case == "hypothesis-dir":
            hyp = folder
        else:
            out = folder
        args = ["score", "--gold", str(gold), str(hyp), "-o", str(out)]
        named = "latin1" if case == "partition-not-utf8" else "folder"
    before = sorted(p.name for p in tmp_path.rglob("*"))
    assert main(args) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("ERROR:2:") and named in line
    assert sorted(p.name for p in tmp_path.rglob("*")) == before


@pytest.mark.parametrize("train,value,code", [
    ((0, 1), "1e160", 2), ((0, 1), "1e200", 2), ((0, 1), "1e12", 0),
    ((-1e200, 1e200), "0", 2), ((1.7e308, 1.7e308), "0", 2),
], ids=["1e160-2", "1e200-2", "1e12-0", "spread-2", "mean-2"])
def test_run_feature_too_large_to_square_exit_2(tmp_path, capsys, train, value, code):
    # Standardized by the training values 0 and 1, the test value doubles;
    # from about 1e154 its square is not a finite float.  A training spread
    # or mean past the float range is the same error, with no numpy warning.
    path = tmp_path / "big.csv"
    path.write_text(f"id,split,label,f1\na,train,x,{train[0]}\nb,train,y,{train[1]}\n"
                    f"c,test,,{value}\n")
    assert main(["run", str(path), "--iters", "60", "-o", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert (tmp_path / "o.pred.tsv").exists() == (code == 0)
    if code:
        (line,) = err.splitlines()
        assert line.startswith("ERROR:2:") and "too large" in line


def test_commands_leave_process_state_alone(tmp_path, capsys):
    # Neither the sampler nor any command may change numpy's error handling
    # or the environment.
    from dpsc.sampler import SamplerConfig, run_chains

    data, ds = make_dataset_file(tmp_path, seed=3)
    write_parts(tmp_path)
    write_partition_file(Partition({f"i{k}": k % 3 for k in range(12)}), tmp_path / "pool.tsv")
    steps = [
        lambda: run_chains(standardize(ds)[0], SamplerConfig(iterations=4)),
        lambda: main(["run", str(data), "--iters", "4", "--variant", "m3",
                      "-o", str(tmp_path / "r")]),
        lambda: main(["score", "--gold", str(tmp_path / "gold.tsv"), str(tmp_path / "fine.tsv"),
                      "-o", str(tmp_path / "s.csv")]),
        lambda: main(["dpfit", str(tmp_path / "pool.tsv"), "--resamples", "5",
                      "-o", str(tmp_path / "c.csv")]),
    ]
    for step in steps:
        err, env = np.geterr(), dict(os.environ)
        assert step() not in (1, 2)
        assert np.geterr() == err and dict(os.environ) == env


DATASET_FAULTS = ["duplicate-id", "id-break", "bad-split", "unlabeled-train", "long-label",
                  "missing-column", "short-row", "bad-number", "not-utf8", "non-finite", "huge",
                  "huge-int", "empty"]


@st.composite
def dataset_files(draw, suffix):
    """The bytes of a ``suffix`` (.csv or .json) dataset of a few items with
    one or two features, valid or (about one time in three) spoilt by one or
    two drawn faults."""
    dim = draw(st.integers(1, 2))
    items = []
    for k in range(draw(st.integers(2, 7))):
        split = draw(st.sampled_from(["train", "test"]))
        labels = ["A", "B", 0] if split == "train" else [None, "A", "C"]
        items.append({"id": f"i{k}", "split": split, "label": draw(st.sampled_from(labels)),
                      "features": [draw(st.floats(-3, 3)) for _ in range(dim)]})
    faults = draw(st.lists(st.sampled_from(DATASET_FAULTS), min_size=1, max_size=2)) \
        if draw(st.integers(0, 2)) == 0 else []
    item = draw(st.sampled_from(items))
    columns = ["id", "split", "label"]
    for fault in faults:
        if fault == "duplicate-id":
            item["id"] = items[0]["id"] if item is not items[0] else items[-1]["id"]
        elif fault == "id-break":
            item["id"] = draw(st.sampled_from(["a\tb", "c\nd", "e\r"]))
        elif fault == "bad-split":
            item["split"] = draw(st.sampled_from(["dev", "", "TEST"]))
        elif fault == "unlabeled-train":
            item["split"], item["label"] = "train", draw(st.sampled_from([None, ""]))
        elif fault == "long-label":  # past the csv module's field size limit
            item["label"] = "x" * 140_000
        elif fault == "missing-column":
            columns.remove(draw(st.sampled_from(columns)))
        elif fault == "short-row":
            del item["features"][-1:]
        elif fault == "bad-number":
            item["features"][:1] = ["x"]
        elif fault == "not-utf8":
            item["id"] = b"\xff"
        elif fault == "non-finite":
            item["features"][:1] = [draw(st.sampled_from([math.nan, math.inf, -math.inf]))]
        elif fault == "huge":
            item["features"][:1] = [draw(st.sampled_from([1e154, -1e200, 1e308, -1.7e308]))]
        elif fault == "huge-int":
            item["features"][:1] = [10**400]
        elif fault == "empty":
            items = []

    def text(v):
        return v.decode("latin-1") if isinstance(v, bytes) else str(v)

    if suffix == ".json":
        records = [{k: text(v) if k == "id" else v for k, v in it.items() if k in columns
                    or k == "features"} for it in items]
        return json.dumps(records, ensure_ascii=False).encode(
            "latin-1" if "not-utf8" in faults else "utf-8")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([*columns, *(f"f{j + 1}" for j in range(dim))])
    for it in items:
        cells = ["" if it[k] is None else text(it[k]) for k in columns]
        writer.writerow(cells + [str(v) for v in it["features"]])
    return out.getvalue().encode("latin-1" if "not-utf8" in faults else "utf-8")


RUN_FLAGS = flag_args(
    {"--variant": st.sampled_from(["m1", "m2", "m3"]), "--chains": st.just(1),
     "--iters": st.just(2), "--burn-in": st.integers(0, 1), "--seed": st.integers(0, 3),
     "--aux-samples": st.integers(1, 3),
     "--baseline": st.sampled_from(["", "coarse", "fine,kmeans", "cdp"])},
    {"--chains": st.integers(-1, 0), "--iters": st.integers(-1, 0),
     "--burn-in": st.sampled_from([-1, 2]), "--seed": st.integers(-2, -1),
     "--aux-samples": st.integers(-1, 0), "--baseline": st.sampled_from(["bogus", "cdp,none"])},
)


@settings(max_examples=500, deadline=None, database=None)
@given(st.sampled_from([".csv", ".json"]).flatmap(
           lambda suffix: st.tuples(st.just(suffix), dataset_files(suffix))),
       RUN_FLAGS, st.lists(st.sampled_from(["--share-train-test", "--resample-alpha"]),
                           unique=True), st.sampled_from(["o", "o", "o", "nodir/o"]))
def test_run_exit_codes_on_drawn_datasets_and_flags(data, flags, switches, prefix):
    suffix, raw = data
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data" + suffix)
        Path(path).write_bytes(raw)
        out = os.path.join(tmp, prefix)
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = main(["run", path, *flags, *switches, "-o", out])
        assert code in (0, 2), err.getvalue()
        if code:
            lines = err.getvalue().splitlines()
            assert lines and all(line.startswith("ERROR:2:") for line in lines)
            assert os.listdir(tmp) == ["data" + suffix]
            return
        ds = load_dataset(path)
        test_ids = {ds.ids[i] for i in ds.indices("test")}
        wanted = next(f for f in flags if f.startswith("--baseline=")).split("=")[1]
        baselines = [b for b in wanted.split(",") if b]
        for name in ["pred", *baselines]:
            assert set(read_partition_file(f"{out}.{name}.tsv").assignment) == test_ids
        with open(f"{out}.chains.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(math.isfinite(float(row["joint_log_score"])) for row in rows)
        assert all(min(int(row["n_publications"]), int(row["n_types"])) >= 1 for row in rows)


# ------------------------------------------------------------------ score


def write_parts(tmp_path):
    gold = Partition({"a": "g1", "b": "g1", "c": "g2"})
    write_partition_file(gold, tmp_path / "gold.tsv")
    hyp = Partition({"a": 0, "b": 1, "c": 2})
    write_partition_file(hyp, tmp_path / "fine.tsv")
    write_partition_file(gold, tmp_path / "same.tsv")
    return gold


def test_score_perfect_and_fine_rows(tmp_path, capsys):
    write_parts(tmp_path)
    assert main(["score", "--gold", str(tmp_path / "gold.tsv"),
                 str(tmp_path / "same.tsv"), str(tmp_path / "fine.tsv")]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    perfect, fine = rows
    assert [float(perfect[c]) for c in ("ri", "precision", "recall", "f_score",
                                        "ced", "nes", "vi", "nvi")] == [1, 1, 1, 1, 0, 1, 0, 1]
    assert float(fine["precision"]) == 1.0
    assert float(fine["recall"]) == 0.0


def test_score_json_matches_library(tmp_path, capsys):
    gold = write_parts(tmp_path)
    assert main(["score", "--gold", str(tmp_path / "gold.tsv"),
                 str(tmp_path / "fine.tsv"), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    rep = full_report(gold, read_partition_file(tmp_path / "fine.tsv"))
    assert payload[0]["f_score"] == pytest.approx(rep.f_score)
    assert payload[0]["ced"] == pytest.approx(rep.ced_gh / 3)
    assert payload[0]["ced_hg"] == pytest.approx(rep.ced_hg / 3)


def test_score_item_mismatch_names_ids(tmp_path, capsys):
    write_parts(tmp_path)
    write_partition_file(Partition({"a": 0, "b": 0, "z": 1}), tmp_path / "bad.tsv")
    code = main(["score", "--gold", str(tmp_path / "gold.tsv"), str(tmp_path / "bad.tsv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "ERROR:2:" in err and "c" in err and "z" in err


def test_score_lists_every_problem_before_scoring(tmp_path, capsys, monkeypatch):
    write_parts(tmp_path)
    write_partition_file(Partition({"a": 0, "b": 0, "z": 1}), tmp_path / "bad.tsv")
    calls = []
    monkeypatch.setattr("dpsc.cli.report_from_codes", lambda *a: calls.append(a))
    code = main(["score", "--gold", str(tmp_path / "gold.tsv"), str(tmp_path / "fine.tsv"),
                 str(tmp_path / "missing.tsv"), str(tmp_path / "bad.tsv"),
                 "-o", str(tmp_path / "nodir" / "s.csv")])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert all(line.startswith("ERROR:2:") for line in lines)
    for expected in ("missing.tsv", "bad.tsv: partitions cover different items",
                     "does not exist"):
        assert sum(expected in line for line in lines) == 1, expected
    assert len(lines) == 3
    assert calls == []


def test_score_reads_each_input_once(tmp_path, capsys, monkeypatch):
    write_parts(tmp_path)
    inputs = [str(tmp_path / name) for name in ("gold.tsv", "same.tsv", "fine.tsv")]
    out = str(tmp_path / "s.csv")
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(os.fspath(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    assert main(["score", "--gold", *inputs, "-o", out]) == 0
    assert sorted(opened) == sorted(inputs + [out])


@st.composite
def partition_files(draw, ids):
    """The bytes of a partition file over ``ids``, valid or (about one in
    four) spoilt by one or two drawn faults, and whether it was left valid."""
    lines = [f"{item}\t{draw(st.integers(0, 3))}".encode() for item in ids]
    faults = draw(st.lists(st.sampled_from(
        ["drop", "extra", "duplicate", "malformed", "not-utf8", "empty"]), min_size=1,
        max_size=2)) if draw(st.integers(0, 3)) == 0 else []
    for fault in faults:
        if fault == "drop" and lines:
            lines.pop(draw(st.integers(0, len(lines) - 1)))
        elif fault == "extra":
            lines.append(b"zz\t0")
        elif fault == "duplicate" and lines:
            lines.append(draw(st.sampled_from(lines)))
        elif fault == "malformed":
            lines.append(draw(st.sampled_from([b"a", b"a\tb\tc", b"\t\t"])))
        elif fault == "not-utf8":
            lines.append(b"\xff\xfe\t0")
        elif fault == "empty":
            lines = []
    lines = draw(st.permutations(lines)) + [b""] * draw(st.integers(0, 1))
    return b"".join(line + b"\n" for line in lines), not faults


@st.composite
def score_cases(draw):
    """A gold file and one to three hypothesis files over up to 6 ids."""
    ids = draw(st.lists(st.sampled_from(["a", "b", "c", "d", "e", "\u00e9", "10", "2"]),
                        unique=True, max_size=6))
    return len(ids), draw(st.lists(partition_files(ids), min_size=2, max_size=4))


@settings(max_examples=100, deadline=None, database=None)
@given(score_cases())
def test_score_exit_codes_and_rows_on_drawn_files(case):
    n_ids, files = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"p{j}.tsv") for j in range(len(files))]
        for path, (data, _) in zip(paths, files):
            Path(path).write_bytes(data)
        out = os.path.join(tmp, "scores.csv")
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = main(["score", "--gold", *paths, "-o", out])
        assert code in (0, 2)
        if code == 2:
            lines = err.getvalue().splitlines()
            assert lines and all(line.startswith("ERROR:2:") for line in lines)
            assert not os.path.exists(out)
            assert n_ids < 2 or not all(valid for _, valid in files)
            return
        gold = read_partition_file(paths[0])
        n = gold.n_items
        rows = list(csv.DictReader(Path(out).read_text().splitlines()))
        assert [row["name"] for row in rows] == paths[1:]
        for row, path in zip(rows, paths[1:]):
            rep = full_report(gold, read_partition_file(path))
            expected = [rep.rand_index, rep.precision, rep.recall, rep.f_score, rep.ced_gh / n,
                        rep.nes, rep.vi, rep.nvi, rep.ced_hg / n]
            assert [float(row[c]) for c in SCORE_COLUMNS[1:]] == expected


def test_score_repeatable(tmp_path, capsys):
    write_parts(tmp_path)
    args = ["score", "--gold", str(tmp_path / "gold.tsv"), str(tmp_path / "fine.tsv")]
    main(args)
    first = capsys.readouterr().out
    main(args)
    assert capsys.readouterr().out == first


# ------------------------------------------------------------------ dpfit


def test_dpfit_outputs_curve(tmp_path, capsys):
    rng = np.random.default_rng(0)
    from dpsc.dp import crp_sample

    for j in range(2):
        pool = crp_sample(2.0, 120, rng)
        write_partition_file(
            Partition({f"p{j}_{i}": c for i, c in pool.assignment.items()}),
            tmp_path / f"pool{j}.tsv",
        )
    out = tmp_path / "curve.csv"
    assert main(["dpfit", str(tmp_path / "pool0.tsv"), str(tmp_path / "pool1.tsv"),
                 "--points", "12", "--resamples", "40", "--seed", "1",
                 "-o", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "alpha=" in stdout
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 12
    assert int(rows[-1]["n"]) == 240
    for row in rows:
        assert float(row["dp_lo"]) <= float(row["dp_mean"]) <= float(row["dp_hi"])


def test_dpfit_single_class_pool_small_alpha(tmp_path, capsys):
    write_partition_file(Partition({f"i{k}": 0 for k in range(80)}), tmp_path / "one.tsv")
    out = tmp_path / "c.csv"
    # one cluster in one pool: the posterior keeps alpha below 1
    assert main(["dpfit", str(tmp_path / "one.tsv"), "--prior-shape", "4.0",
                 "--points", "6", "--resamples", "20", "--seed", "0",
                 "-o", str(out)]) == 0
    stdout = capsys.readouterr().out
    alpha = float(stdout.split("alpha=")[1].splitlines()[0])
    assert alpha < 1.0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert float(rows[0]["dp_mean"]) == pytest.approx(1.0, abs=0.2)


def test_dpfit_deterministic_bytes(tmp_path):
    rng = np.random.default_rng(5)
    from dpsc.dp import crp_sample

    pool = crp_sample(2.0, 90, rng)
    write_partition_file(
        Partition({f"q{i}": c for i, c in pool.assignment.items()}), tmp_path / "pool.tsv"
    )
    flags = ["dpfit", str(tmp_path / "pool.tsv"), "--points", "5", "--resamples", "25",
             "--seed", "9", "-o"]
    assert main(flags + [str(tmp_path / "c1.csv")]) == 0
    assert main(flags + [str(tmp_path / "c2.csv")]) == 0
    assert (tmp_path / "c1.csv").read_bytes() == (tmp_path / "c2.csv").read_bytes()


def test_dpfit_lists_every_problem_before_fitting(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("dpsc.cli.appropriateness_curve", lambda *a: calls.append(a))
    code = main(["dpfit", str(tmp_path / "x.tsv"), "--points", "0", "--resamples", "0",
                 "--prior-shape", "-1", "-o", str(tmp_path / "nodir" / "o.csv")])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert all(line.startswith("ERROR:2:") for line in lines)
    for expected in ("--points", "--resamples", "gamma prior", "x.tsv", "does not exist"):
        assert sum(expected in line for line in lines) == 1, expected
    assert len(lines) == 5
    assert calls == []


@pytest.mark.parametrize("flags", [
    ["--prior-shape", "inf"], ["--prior-scale", "inf"],
    ["--prior-shape", "1e308", "--prior-scale", "1e308"], ["--prior-scale", "1e-320"],
], ids=["shape", "scale", "mean", "rate"])
def test_dpfit_non_finite_prior_exit_2(tmp_path, capsys, flags):
    write_partition_file(Partition({f"i{k}": k % 3 for k in range(12)}), tmp_path / "pool.tsv")
    out = tmp_path / "c.csv"
    assert main(["dpfit", str(tmp_path / "pool.tsv"), *flags, "--resamples", "5",
                 "-o", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("ERROR:2:") and "gamma prior" in line
    assert not out.exists()


DPFIT_FLAGS = flag_args(
    {"--points": st.integers(1, 4), "--resamples": st.integers(1, 3),
     "--prior-shape": st.sampled_from(["1e-300", "0.5", "2", "1e300"]),
     "--prior-scale": st.sampled_from(["1e-300", "1", "3", "1e300"]),
     "--seed": st.integers(0, 3)},
    {"--points": st.integers(-1, 0), "--resamples": st.integers(-1, 0),
     "--prior-shape": st.sampled_from(["nan", "inf", "-1", "0"]),
     "--prior-scale": st.sampled_from(["nan", "inf", "-1", "0", "1e-320"]),
     "--seed": st.integers(-2, -1)},
)


@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(partition_files(["a", "b", "c", "d"]), min_size=1, max_size=2), DPFIT_FLAGS,
       st.sampled_from(["c.csv", "c.json", "nodir/c.csv"]))
def test_dpfit_exit_codes_on_drawn_pools_and_flags(pools, flags, name):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"p{j}.tsv") for j in range(len(pools))]
        for path, (data, _) in zip(paths, pools):
            Path(path).write_bytes(data)
        out = os.path.join(tmp, name)
        # Under this shape, pools of one class each underflow the precision
        # draw (test_dpfit_underflowed_precision_draw_exit_1).
        runtime = "prior shape 1e-300" if "--prior-shape=1e-300" in flags else None
        if _exit_0_or_2(["dpfit", *paths, *flags], out, runtime) == 0:
            rows = list(csv.DictReader(Path(out).read_text().splitlines()))
            assert rows and all(len(row) == 7 for row in rows)
            for row in rows:
                [float(v) for v in row.values()]


def test_dpfit_missing_output_dir_fails_before_fitting(tmp_path, capsys, monkeypatch):
    write_partition_file(Partition({f"i{k}": k % 3 for k in range(12)}), tmp_path / "pool.tsv")
    calls = []
    monkeypatch.setattr("dpsc.cli.appropriateness_curve", lambda *a: calls.append(a))
    code = main(["dpfit", str(tmp_path / "pool.tsv"), "-o", str(tmp_path / "nodir" / "o.csv")])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR:2:") and "does not exist" in lines[0]
    assert calls == []


def test_dpfit_one_class_pool_at_default_prior(tmp_path, capsys):
    # One pair with k = 1 at prior shape 1: every gamma shape of the
    # precision refresh is still positive, so the fit runs.
    write_partition_file(Partition({f"i{k}": 0 for k in range(10)}), tmp_path / "one.tsv")
    out = tmp_path / "c.csv"
    assert main(["dpfit", str(tmp_path / "one.tsv"), "-o", str(out)]) == 0
    cap = capsys.readouterr()
    assert cap.err == ""
    assert float(cap.out.split("alpha=")[1].splitlines()[0]) > 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [int(r["n"]) for r in rows] == list(range(1, 11))
    assert all(float(r["emp_mean"]) == 1.0 for r in rows)


def test_dpfit_tiny_alpha_writes_finite_curve(tmp_path, capsys):
    # The prior mean 1e-300 puts alpha near 2e-300, where the DP's
    # expected cluster count is 1 at every N.
    (tmp_path / "p.tsv").write_text("a\t0\nb\t1\nc\t1\n")
    out = tmp_path / "c.csv"
    assert main(["dpfit", str(tmp_path / "p.tsv"), "--prior-scale", "1e-300", "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 3
    assert all(np.isfinite([float(v) for v in row.values()]).all() for row in rows)
    assert all(float(row["dp_mean"]) == pytest.approx(1.0) for row in rows)


def test_dpfit_underflowed_precision_draw_exit_1(tmp_path, capsys):
    # A one-class pool under prior shape 1e-300: the gamma draw of alpha
    # underflows to 0, a runtime failure after every input was valid.
    (tmp_path / "one.tsv").write_text("a\t0\nb\t0\nc\t0\n")
    out = tmp_path / "c.csv"
    assert main(["dpfit", str(tmp_path / "one.tsv"), "--prior-shape", "1e-300",
                 "-o", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("ERROR:1:") and "prior shape 1e-300" in line
    assert not out.exists()


# ------------------------------------------------------------ import guard

SCIPY_GUARD = """
import json, sys
from dpsc.cli import main
data, prefix, pool, curve = sys.argv[1:]
assert main(["run", data, "--chains", "1", "--iters", "4", "--seed", "1",
             "--baseline", "kmeans,cdp", "-o", prefix]) == 0
assert main(["dpfit", pool, "--points", "5", "--resamples", "5", "-o", curve]) == 0
assert main(["score", "--gold", prefix + ".kmeans.tsv", prefix + ".pred.tsv",
             prefix + ".cdp.tsv", "-o", prefix + ".scores.csv"]) == 0
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_run_and_dpfit_load_no_scipy(tmp_path):
    # No command needs scipy; an import of it anywhere on the run, dpfit or
    # score path shows here.
    root = Path(__file__).resolve().parents[1]
    write_partition_file(Partition({f"i{k}": k % 4 for k in range(30)}), tmp_path / "pool.tsv")
    args = [str(root / "tests" / "golden" / "data.csv"), str(tmp_path / "run"),
            str(tmp_path / "pool.tsv"), str(tmp_path / "curve.csv")]
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "DPSC_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", SCIPY_GUARD, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
    assert (tmp_path / "run.kmeans.tsv").exists() and (tmp_path / "run.cdp.tsv").exists()
    assert len((tmp_path / "run.scores.csv").read_text().splitlines()) == 3
