import csv
import json

import numpy as np
import pytest

from dpsc.cli import main
from dpsc.data import Dataset, SynthConfig, save_dataset, synth_gaussian
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


def test_run_thread_count_does_not_change_results(tmp_path, monkeypatch):
    data, _ = make_dataset_file(tmp_path, seed=1)
    flags = ["run", str(data), "--variant", "m1", "--chains", "4", "--iters", "20",
             "--seed", "2", "-o"]
    monkeypatch.setenv("DPSC_THREADS", "1")
    assert main(flags + [str(tmp_path / "t1")]) == 0
    monkeypatch.setenv("DPSC_THREADS", "4")
    assert main(flags + [str(tmp_path / "t4")]) == 0
    assert (tmp_path / "t1.pred.tsv").read_bytes() == (tmp_path / "t4.pred.tsv").read_bytes()
    assert (tmp_path / "t1.chains.csv").read_bytes() == (tmp_path / "t4.chains.csv").read_bytes()


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
    monkeypatch.setattr("dpsc.cli.full_report", lambda *a: calls.append(a))
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
