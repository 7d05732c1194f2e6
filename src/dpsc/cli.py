"""Command-line front end: synth / run / score / dpfit.

Every command is deterministic given its flags (seeds included).  Errors
go to stderr with an ``ERROR:<exit-code>:`` prefix; exit code 2 means the
inputs or flags were invalid, 1 means a runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import baselines
from .data import Dataset, SynthConfig, load_dataset, save_dataset, standardize, synth_gaussian
from .dp import GammaPrior, appropriateness_curve
from .errors import ConfigError, DomainError
from .metrics import aligned_codes, comparison_problem, label_codes, report_from_codes
from .partition import read_partition_file, write_partition_file
from .sampler import SamplerConfig, default_workers, extract_prediction, run_chains

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VALIDATION = 2


class _ValidationFailure(Exception):
    def __init__(self, messages):
        super().__init__("; ".join(messages))
        self.messages = list(messages)


def _output_problems(what, path, *files):
    """The directory an output path names must exist and be writable, and
    none of the ``files`` written there (by default the path itself) may be
    a directory."""
    out_dir = os.path.dirname(path) or "."
    if not os.path.isdir(out_dir):
        return [f"{what} {path!r}: directory {out_dir!r} does not exist"]
    if not os.access(out_dir, os.W_OK | os.X_OK):
        return [f"{what} {path!r}: directory {out_dir!r} is not writable"]
    return [f"{what} {f!r} is a directory" for f in files or (path,) if os.path.isdir(f)]


def _read(reader, path, errors):
    """``reader(path)``, or None with its error appended to ``errors``."""
    try:
        return reader(path)
    except DomainError as exc:
        errors.append(str(exc))
    except OSError as exc:  # missing, a directory, unreadable
        errors.append(f"{path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        errors.append(f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#04x} "
                      f"at offset {exc.start})")
    return None


class _Parser(argparse.ArgumentParser):
    """Reports a usage error (a missing value, a bad choice) as one
    ``ERROR:2:`` line, like every other invalid input."""

    def error(self, message):
        raise _ValidationFailure([f"{self.prog}: {message}"])


def build_parser():
    parser = _Parser(prog="dpsc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic Gaussian dataset")
    p.add_argument("--train-classes", type=int, required=True)
    p.add_argument("--test-classes", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--min-size", type=int, default=30)
    p.add_argument("--max-size", type=int, default=300)
    p.add_argument("--separation", type=float, default=3.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True,
                   help="dataset path: JSON if it ends in .json, else CSV")

    p = sub.add_parser("run", help="run MCMC chains and write the predicted partition")
    p.add_argument("dataset", help="dataset CSV/JSON path")
    p.add_argument("--variant", choices=["m1", "m2", "m3"], default="m1")
    p.add_argument("--chains", type=int, default=2)
    p.add_argument("--iters", type=int, default=2000)
    p.add_argument("--burn-in", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--share-train-test", action="store_true")
    p.add_argument("--resample-alpha", action="store_true")
    p.add_argument("--aux-samples", type=int, default=8)
    p.add_argument("--baseline", default="", help="comma list: coarse,fine,kmeans,cdp")
    p.add_argument("-o", "--out-prefix", required=True)

    p = sub.add_parser("score", help="score hypothesis partitions against a gold partition")
    p.add_argument("--gold", required=True)
    p.add_argument("hypotheses", nargs="+")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("-o", "--output", default=None, help="default: stdout")

    p = sub.add_parser("dpfit", help="DP-appropriateness curves from labeled pools")
    p.add_argument("pools", nargs="+", help="labeled partition files (training pools)")
    p.add_argument("--points", type=int, default=20, help="size of the N grid")
    p.add_argument("--resamples", type=int, default=200)
    p.add_argument("--prior-shape", type=float, default=1.0)
    p.add_argument("--prior-scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True, help="curve CSV path")
    return parser


def cmd_synth(args):
    cfg = SynthConfig(
        n_train_classes=args.train_classes,
        n_test_classes=args.test_classes,
        dim=args.dim,
        min_class_size=args.min_size,
        max_class_size=args.max_size,
        separation=args.separation,
        seed=args.seed,
    )
    errors = cfg.validate() + _output_problems("output", args.output)
    if errors:
        raise _ValidationFailure(errors)
    dataset = synth_gaussian(cfg)
    save_dataset(dataset, args.output)
    counts = {}
    for lab in dataset.labels:
        counts[lab] = counts.get(lab, 0) + 1
    print(f"wrote {dataset.n_items} items, dim {dataset.dim}, to {args.output}")
    for lab in sorted(counts):
        print(f"  class {lab}: {counts[lab]} items")
    return EXIT_OK


BASELINES = ("coarse", "fine", "kmeans", "cdp")


def _run_validate(args, dataset):
    """Every flag and output problem; the dataset checks are skipped when
    it failed to load (``dataset`` is None)."""
    errors = []
    wanted = [b for b in args.baseline.split(",") if b]
    for b in wanted:
        if b not in BASELINES:
            errors.append(f"unknown baseline {b!r} (choose from {', '.join(BASELINES)})")
    if dataset is not None:
        test_idx = dataset.indices("test")
        if len(test_idx) == 0:
            errors.append("dataset has no test items to predict")
        if "kmeans" in wanted and any(not dataset.labels[i] for i in test_idx):
            errors.append("kmeans baseline needs gold labels on test items to pick oracle k")
    written = [".pred.tsv", ".chains.csv", *(f".{b}.tsv" for b in wanted)]
    errors += _output_problems("output prefix", args.out_prefix,
                               *(args.out_prefix + suffix for suffix in written))
    return wanted, errors


def cmd_run(args):
    errors = []
    dataset = _read(load_dataset, args.dataset, errors)
    config = SamplerConfig(
        variant=args.variant,
        iterations=args.iters,
        burn_in=args.burn_in,
        aux_samples=args.aux_samples,
        share_train_test=args.share_train_test,
        resample_alphas=args.resample_alpha,
        n_chains=args.chains,
        seed=args.seed,
    )
    wanted, flag_errors = _run_validate(args, dataset)
    errors.extend(flag_errors)
    errors.extend(config.validate(dataset))
    if dataset is not None:
        try:
            std, _ = standardize(dataset)
        except DomainError as exc:
            errors.append(str(exc))
    try:
        workers = default_workers()
    except ConfigError as exc:
        errors.append(str(exc))
    if errors:
        raise _ValidationFailure(errors)

    test_idx = std.indices("test")
    test_ids = [std.ids[i] for i in test_idx]
    parts = {}

    # Run by run_chains beside the chain workers; the files are written
    # only once the chains have succeeded.
    def in_process_baselines():
        for name in wanted:
            if name == "coarse":
                parts[name] = baselines.coarse(test_ids)
            elif name == "fine":
                parts[name] = baselines.fine(test_ids)
            elif name == "kmeans":
                k = len({std.labels[i] for i in test_idx})
                parts[name] = baselines.kmeans(
                    std.X[test_idx], baselines.KMeansConfig(k=k, seed=args.seed), ids=test_ids
                )

    per_chain = run_chains(std, config, workers, meanwhile=in_process_baselines)
    prediction = extract_prediction(per_chain)
    write_partition_file(prediction, f"{args.out_prefix}.pred.tsv")
    with open(f"{args.out_prefix}.chains.csv", "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["chain", "iteration", "joint_log_score", "n_publications", "n_types"])
        for ci, records in enumerate(per_chain):
            for rec in records:
                writer.writerow(
                    [ci, rec.iteration, repr(rec.joint_log_score), rec.n_publications, rec.n_types]
                )
    print(f"wrote {args.out_prefix}.pred.tsv ({prediction.n_clusters} clusters)")

    for name in wanted:
        if name == "cdp":  # unsupervised DP over the test portion only
            cdp_cfg = baselines.cdp_preset()
            cdp_cfg.iterations = args.iters
            cdp_cfg.burn_in = args.burn_in
            cdp_cfg.n_chains = args.chains
            cdp_cfg.seed = args.seed
            test_ds = Dataset(
                ids=test_ids,
                X=std.X[test_idx],
                labels=[None] * len(test_ids),
                split=["test"] * len(test_ids),
            )
            parts[name] = extract_prediction(run_chains(test_ds, cdp_cfg, workers))
        write_partition_file(parts[name], f"{args.out_prefix}.{name}.tsv")
        print(f"wrote {args.out_prefix}.{name}.tsv")
    return EXIT_OK


SCORE_COLUMNS = [
    "name", "ri", "precision", "recall", "f_score", "ced", "nes", "vi", "nvi", "ced_hg",
]


def cmd_score(args):
    errors = []
    gold = _read(read_partition_file, args.gold, errors)
    coded = []  # (path, the hypothesis's code array in gold-item order)
    for path in args.hypotheses:
        hyp = _read(read_partition_file, path, errors)
        if gold is not None and hyp is not None:
            problem = comparison_problem(gold, hyp)
            if problem:
                errors.append(f"{path}: {problem}")
            else:
                coded.append((path, aligned_codes(gold, hyp)))
        del hyp  # only one partition besides the gold one is held at a time
    if args.output:
        errors += _output_problems("output", args.output)
    if errors:
        raise _ValidationFailure(errors)
    gold_codes = label_codes(gold.assignment.values())
    del gold
    n = len(gold_codes)
    rows = []
    for path, codes in coded:
        rep = report_from_codes(gold_codes, codes)
        # The tabulated CED convention is the gold<-hyp count normalized by N.
        rows.append(
            {
                "name": path,
                "ri": rep.rand_index,
                "precision": rep.precision,
                "recall": rep.recall,
                "f_score": rep.f_score,
                "ced": rep.ced_gh / n,
                "nes": rep.nes,
                "vi": rep.vi,
                "nvi": rep.nvi,
                "ced_hg": rep.ced_hg / n,
            }
        )
    out = open(args.output, "w", encoding="utf-8", newline="\n") if args.output else sys.stdout
    try:
        if args.format == "csv":
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(SCORE_COLUMNS)
            for row in rows:
                writer.writerow([row["name"]] + [repr(row[c]) for c in SCORE_COLUMNS[1:]])
        else:
            json.dump(rows, out, indent=1)
            out.write("\n")
    finally:
        if args.output:
            out.close()
    return EXIT_OK


def cmd_dpfit(args):
    errors = []
    if args.points < 1:
        errors.append(f"--points must be >= 1, got {args.points}")
    if args.resamples < 1:
        errors.append(f"--resamples must be >= 1, got {args.resamples}")
    if args.seed < 0:
        errors.append(f"--seed must be a non-negative integer, got {args.seed}")
    try:
        prior = GammaPrior(shape=args.prior_shape, scale=args.prior_scale)
    except DomainError as exc:
        errors.append(str(exc))
    pools = [_read(read_partition_file, p, errors) for p in args.pools]
    errors += _output_problems("output", args.output)
    if errors:
        raise _ValidationFailure(errors)
    total = sum(p.n_items for p in pools)
    ns = np.unique(np.linspace(1, total, min(args.points, total)).astype(int))
    rng = np.random.default_rng(args.seed)
    curve = appropriateness_curve(pools, ns, args.resamples, prior, rng)
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "dp_mean", "dp_lo", "dp_hi", "emp_mean", "emp_lo", "emp_hi"])
        for j in range(len(curve.ns)):
            writer.writerow(
                [
                    int(curve.ns[j]),
                    repr(float(curve.dp_mean[j])),
                    repr(float(curve.dp_mean[j] - 2 * curve.dp_std[j])),
                    repr(float(curve.dp_mean[j] + 2 * curve.dp_std[j])),
                    repr(float(curve.empirical_mean[j])),
                    repr(float(curve.empirical_mean[j] - 2 * curve.empirical_std[j])),
                    repr(float(curve.empirical_mean[j] + 2 * curve.empirical_std[j])),
                ]
            )
    print(f"alpha={curve.alpha!r}")
    print(f"wrote {len(curve.ns)} rows to {args.output}")
    return EXIT_OK


COMMANDS = {"synth": cmd_synth, "run": cmd_run, "score": cmd_score, "dpfit": cmd_dpfit}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return COMMANDS[args.command](args)
    except SystemExit as exc:  # --help, which printed its text
        return EXIT_OK if exc.code in (0, None) else EXIT_VALIDATION
    except _ValidationFailure as exc:
        for msg in exc.messages:
            print(f"ERROR:{EXIT_VALIDATION}:{msg}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DomainError, ConfigError, FileNotFoundError) as exc:
        print(f"ERROR:{EXIT_VALIDATION}:{exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - last-resort runtime report
        print(f"ERROR:{EXIT_RUNTIME}:{exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
