"""The four workloads: inputs from a seed, the measured work, the checks.

Run workloads (small-m1, many-m1, cond-m3) time ``dpsc run`` as a child
process and one chain in-process; evaluate times ``dpsc score`` and
``dpsc dpfit``.  The loop is closed with one client: each child starts
after the previous one exits, and the only parallel work is the CLI's own
chain workers.  Untraced runs give the end-to-end metrics; traced runs
replay the same work in-process with spans around each layer's calls and
give the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import copy
import gc
import multiprocessing
import os
import pickle
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

import checks
import micro
from tracing import patched

import dpsc.dp
import dpsc.sampler
from dpsc import baselines
from dpsc.data import SynthConfig, load_dataset, save_dataset, standardize, synth_gaussian
from dpsc.dp import GammaPrior, ObservationPair, appropriateness_curve, sample_precision_multi
from dpsc.metrics import cluster_edit_distance, full_report, pair_counts, variation_of_information
from dpsc.partition import read_partition_file, write_partition_file
from dpsc.sampler import (
    ChainState,
    SampleRecord,
    SamplerConfig,
    chain_rng,
    extract_prediction,
    run_chain,
    run_chains,
)

CHILD_TIMEOUT_S = 100
STARTUP_REPS = 3
# A shared machine runs the same work up to twice as fast at one moment as
# at another, in phases of seconds.  The median of one timing over 15 s
# spread by about 0.15 (interquartile range over median) from window to
# window, over 40 s by 0.07.  So each metric's samples are spread over the
# whole run: the in-process work runs in chunks before, between and after
# the CLI runs, each chunk alternating set-ups and short timed blocks for a
# fixed time, and the metrics are medians.  Every block repeats the same
# work, so the number that fits does not change what is measured.  The
# in-process time scales with --seconds and is sized for runs of
# REFERENCE_SECONDS, the value in BENCHMARK.json.
#
# One process alone on the machine also ran up to 40% faster for tens of
# seconds at a time, which made whole runs of sweeps_per_s fast: spread
# 0.25 over ten seeds, against 0.09-0.17 in three sets timed with both CPUs
# busy.  So the in-process work runs in as many worker processes as
# `dpsc run` starts chain workers, min(nproc, 2), each doing the same work,
# as the CLI's chains run.
REFERENCE_SECONDS = 38
MIN_ROUNDS = 2  # set-up and block pairs per chunk, however long they take
TIMING_WORKERS = min(os.cpu_count() or 1, 2)
# Names dpsc.sampler imports from lower layers; the traced replay rebinds
# them to record a span per call.
SAMPLER_IMPORTS = (
    ("gaussian", "data_loglik_rows"),
    ("gaussian", "marginal_loglik_new_publication"),
    ("gaussian", "pairwise_sq_diff_sum"),
    ("gaussian", "posterior_sample_publication"),
    ("gaussian", "posterior_sample_type"),
    ("dp", "sample_precision_single"),
)
LAYERS = ("bench", "cli", "data", "sampler", "gaussian", "dp", "metrics", "partition", "baselines")


@dataclass(frozen=True)
class RunSpec:
    """A ``dpsc run`` workload.

    The CLI runs once per chain seed in ``cli_seeds``, offsets from the
    workload seed.  Distinct offsets are 2 apart so no two runs share a
    chain (chain i uses seed XOR i); a repeated offset checks that the
    prediction is byte-identical.  The in-process chain sweeps
    ``warm_sweeps`` times to reach its steady state; each timed block of
    ``block_sweeps`` sweeps starts from a copy of that state.  The chunks
    of the run (see REFERENCE_SECONDS) share ``in_process_s`` seconds of
    set-ups and blocks.  A prediction whose
    pairwise F is below ``f_floor`` fails the run: the floors sit far below
    every F the seed commit gave, so they catch a broken sampler, not noise.
    """

    synth: dict
    variant: str
    iters: int
    flags: tuple
    cli_seeds: tuple
    in_process_s: float
    warm_sweeps: int
    block_sweeps: int
    f_floor: float

    def sampler_config(self, seed):
        # Mirrors what `dpsc run` builds from the same flags.
        return SamplerConfig(
            variant=self.variant,
            iterations=self.iters,
            resample_alphas="--resample-alpha" in self.flags,
            n_chains=2,
            seed=seed,
        )


RUN_WORKLOADS = {
    # The criterion-7 shape, standing in for that 329 s Tier-1 test: K~8,
    # so per-call Python overhead dominates and F~0.99 guards quality.
    "small-m1": RunSpec(
        synth=dict(n_train_classes=4, n_test_classes=3, dim=2,
                   min_class_size=50, max_class_size=50, separation=5.0),
        variant="m1", iters=100, flags=("--resample-alpha",),
        cli_seeds=(0, 0, 2, 4, 6, 8, 10, 12), in_process_s=10,
        warm_sweeps=50, block_sweeps=10,
        f_floor=0.4,
    ),
    # K~80-130: sample_c's O(K) per-call rebuild dominates; heavy records.
    "many-m1": RunSpec(
        synth=dict(n_train_classes=20, n_test_classes=200, dim=4,
                   min_class_size=3, max_class_size=8, separation=8.0),
        variant="m1", iters=20, flags=("--resample-alpha", "--baseline", "kmeans"),
        cli_seeds=(0, 0, 2), in_process_s=12,
        warm_sweeps=10, block_sweeps=2,
        f_floor=0.08,
    ),
    # m3: fresh candidates, the O(K^3) all-singleton start and an O(K^2)
    # pairwise_sq_diff_sum on every d-update; m1 optimisations bypass it.
    "cond-m3": RunSpec(
        synth=dict(n_train_classes=10, n_test_classes=60, dim=3,
                   min_class_size=3, max_class_size=8, separation=8.0),
        variant="m3", iters=10, flags=(),
        cli_seeds=(0, 2), in_process_s=8,
        warm_sweeps=5, block_sweeps=1,
        f_floor=0.01,
    ),
}

# evaluate: a 10^5-item gold partition (cluster sizes 1..8) scored against
# a near-gold hypothesis (10% of items moved) and the all-singletons one,
# then DP-appropriateness curves from 6 CRP(alpha=3) pools of 80..200 items.
EVAL_ITEMS = 100_000
EVAL_MOVED = 0.10
EVAL_POOLS = 6
EVAL_POOL_ALPHA = 3.0
DPFIT_POINTS = 20  # `dpsc dpfit` defaults
DPFIT_RESAMPLES = 200
# In-process: the three reads of `dpsc score` alternating with blocks of
# EVAL_BLOCK_REFRESHES refreshes of dpfit's alpha chain, for EVAL_IN_PROCESS_S.
EVAL_IN_PROCESS_S = 12
EVAL_BLOCK_REFRESHES = 50

class Env:
    """Where a run writes, and how its children are started."""

    def __init__(self, root, workdir):
        self.workdir = workdir
        self.child_env = dict(os.environ, PYTHONPATH=str(root / "src"))


def run_child(env, args, tag):
    """Run ``python <args>`` to exit; returns (exit code, wall s, peak RSS MB).

    The RSS is the peak over the child and the processes it waited for, as
    ``wait4`` reports it.
    """
    with open(env.workdir / f"{tag}.out", "wb") as out, open(env.workdir / f"{tag}.err", "wb") as err:
        t0 = time.perf_counter()
        # A session of its own, so a timeout also kills the chain workers.
        proc = subprocess.Popen([sys.executable, *args], cwd=env.workdir, env=env.child_env,
                                stdout=out, stderr=err, start_new_session=True)
        killer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_cli(env, args, tag):
    code, wall, rss = run_child(env, ["-m", "dpsc.cli", *args], tag)
    problems = []
    if code != 0:
        err = (env.workdir / f"{tag}.err").read_text(encoding="utf-8", errors="replace")
        problems.append(f"dpsc {args[0]} exited {code}: {err.strip()[-300:]}")
    return wall, rss, problems


def cli_startup_s(env):
    walls = [run_child(env, ["-c", "import dpsc.cli"], f"startup{i}")[1] for i in range(STARTUP_REPS)]
    return statistics.median(walls)


def alternate(steps, seconds):
    """Run ``steps`` in turn, round after round, for ``seconds`` and at
    least MIN_ROUNDS rounds."""
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        for step in steps:
            step()
        rounds += 1


def _serve(conn, make_steps):
    set_up, block = make_steps()
    while (seconds := conn.recv()) is not None:
        setups, blocks = [], []
        alternate((lambda: setups.append(set_up()), lambda: blocks.append(block())), seconds)
        conn.send((setups, blocks))


class TimingWorkers:
    """TIMING_WORKERS processes that each build their own set-up and block
    with ``make_steps()``, both returning seconds, and on ``chunk(seconds)``
    alternate them for that long; the times pile up in ``setups`` and
    ``blocks``.  Use as a context manager: leaving it stops every worker."""

    def __init__(self, make_steps):
        self.make_steps = make_steps
        self.setups, self.blocks = [], []
        self.procs, self.conns = [], []

    def __enter__(self):
        ctx = multiprocessing.get_context("fork")
        for _ in range(TIMING_WORKERS):
            conn, child = ctx.Pipe()
            proc = ctx.Process(target=_serve, args=(child, self.make_steps), daemon=True)
            proc.start()
            child.close()
            self.procs.append(proc)
            self.conns.append(conn)
        return self

    def chunk(self, seconds):
        for conn in self.conns:
            conn.send(seconds)
        for conn in self.conns:
            setups, blocks = conn.recv()
            self.setups += setups
            self.blocks += blocks

    def __exit__(self, *exc):
        for conn, proc in zip(self.conns, self.procs):
            with contextlib.suppress(OSError):
                conn.send(None)
            proc.join(CHILD_TIMEOUT_S)
            if proc.is_alive():
                proc.kill()
                proc.join()
            conn.close()


class Outcome:
    """Attempted and failed child runs, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


# ---------------------------------------------------------------- run workloads


@dataclass
class RunInputs:
    data_path: object
    test_ids: list
    gold: list


def make_run_inputs(spec, seed, env):
    dataset = synth_gaussian(SynthConfig(**spec.synth, seed=seed))
    path = env.workdir / "data.csv"
    save_dataset(dataset, path)
    test = dataset.indices("test")
    return RunInputs(path, [dataset.ids[i] for i in test], [dataset.labels[i] for i in test])


def set_up_chain(path, config, chain_index=0):
    dataset, _ = standardize(load_dataset(path))
    return ChainState(dataset, config, chain_rng(config, chain_index))


def record(state, it):
    """What run_chain does after each post-burn-in sweep."""
    return SampleRecord(it, state.test_partition(), state.joint_log_score(),
                        len(state.pubs), len(state.types))


def run_args(spec, inputs, seed, prefix):
    return ["run", str(inputs.data_path), "--variant", spec.variant, "--chains", "2",
            "--iters", str(spec.iters), "--seed", str(seed), *spec.flags, "-o", prefix]


def check_run_outputs(spec, inputs, prefix, env):
    problems = checks.prediction_problems(env.workdir / f"{prefix}.pred.tsv", inputs.test_ids)
    burn = spec.sampler_config(0).resolved_burn_in()
    problems += checks.chains_problems(env.workdir / f"{prefix}.chains.csv", 2 * (spec.iters - burn))
    if "kmeans" in spec.flags:
        problems += checks.prediction_problems(env.workdir / f"{prefix}.kmeans.tsv", inputs.test_ids)
    return problems


def f_score_of(path, inputs):
    assignment = checks.read_assignment(path)
    return checks.score_row(inputs.gold, [assignment[i] for i in inputs.test_ids])["f_score"]


def sweep_block_s(steady, sweeps):
    """Seconds for ``sweeps`` sweeps, each followed by run_chain's record,
    from a copy of ``steady``."""
    state = copy.deepcopy(steady)
    gc.collect()
    t0 = time.perf_counter()
    for it in range(sweeps):
        state.sweep()
        record(state, it)
    return time.perf_counter() - t0


def measure_run(name, seed, seconds, env):
    spec = RUN_WORKLOADS[name]
    inputs = make_run_inputs(spec, seed, env)
    config = spec.sampler_config(seed)
    outcome = Outcome()
    walls, rss, f_scores = [], [], []

    def make_steps():
        # Every worker times chain 0's steady state, so all blocks are alike.
        steady = set_up_chain(inputs.data_path, config)
        for _ in range(spec.warm_sweeps):
            steady.sweep()

        def set_up():
            t0 = time.perf_counter()
            set_up_chain(inputs.data_path, config)
            return time.perf_counter() - t0

        return set_up, lambda: sweep_block_s(steady, spec.block_sweeps)

    # Chunk 0, then each CLI run followed by another chunk.
    chunks = len(spec.cli_seeds) + 1
    chunk_s = spec.in_process_s * seconds / REFERENCE_SECONDS / chunks
    with TimingWorkers(make_steps) as workers:
        for chunk in range(chunks):
            if chunk:
                offset = spec.cli_seeds[chunk - 1]
                prefix = f"run{chunk}"
                wall, peak, problems = run_cli(env, run_args(spec, inputs, seed + offset, prefix),
                                               prefix)
                walls.append(wall)
                rss.append(peak)
                problems = problems or check_run_outputs(spec, inputs, prefix, env)
                pred = env.workdir / f"{prefix}.pred.tsv"
                first = spec.cli_seeds.index(offset) + 1
                if not problems and first < chunk:
                    if pred.read_bytes() != (env.workdir / f"run{first}.pred.tsv").read_bytes():
                        problems.append(f"run{first} and {prefix}: same seed, different pred.tsv bytes")
                elif not problems:
                    f_scores.append(f_score_of(pred, inputs))
                    if f_scores[-1] < spec.f_floor:
                        problems.append(f"{prefix}.pred.tsv: F={f_scores[-1]:.4f} is below {spec.f_floor}")
                outcome.record(problems)
            workers.chunk(chunk_s)

    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(workers.setups),
        "sweeps_per_s": spec.block_sweeps / statistics.median(workers.blocks),
        "peak_rss_mb": statistics.median(rss),
        "f_score": statistics.median(f_scores) if f_scores else 0.0,
        "cli_runs": len(walls),
        "setups_timed": len(workers.setups),
        "blocks_timed": len(workers.blocks),
    }
    return metrics, outcome


def traced_chain_state(tracer, stats):
    """A ChainState whose sweeps and indicator updates are recorded as spans.

    It draws from the generator exactly as ChainState does, so the chain
    visits the same states as an untraced one with the same seed.
    """

    class TracedChainState(ChainState):
        def sweep(self):
            idx = tracer.begin("sampler.sweep")
            try:
                super().sweep()
            finally:
                tracer.end(idx)

        def sample_c(self, n):
            old = int(self.c[n])
            was_singleton = len(self.c_members[old]) == 1
            next_c = self.next_c
            idx = tracer.begin("sampler.sample_c")
            try:
                super().sample_c(n)
            finally:
                tracer.end(idx)
            opened = self.next_c != next_c
            stats["c_new"] += opened
            # A singleton that reopens a fresh cluster keeps its co-members.
            stats["c_moved"] += int(self.c[n]) != old and not (was_singleton and opened)

        def sample_d(self, n):
            idx = tracer.begin("sampler.sample_d")
            try:
                super().sample_d(n)
            finally:
                tracer.end(idx)

    return TracedChainState


def chain_iterations(state, config, on_record):
    """run_chain's loop over an existing state, calling ``on_record(it)``
    after each post-burn-in sweep; seconds per iteration."""
    burn = config.resolved_burn_in()
    times = []
    for it in range(1, config.iterations + 1):
        t0 = time.perf_counter()
        state.sweep()
        if it > burn:
            on_record(it)
        times.append(time.perf_counter() - t0)
    return times


def trace_run(name, seed, env, tracer):
    spec = RUN_WORKLOADS[name]
    out = {}
    with tracer.span("bench.inputs"):
        inputs = make_run_inputs(spec, seed, env)
    config = spec.sampler_config(seed)

    # Untraced: the CLI once, both chains serially, then pooled.
    with tracer.span("cli.run"):
        wall, _, problems = run_cli(env, run_args(spec, inputs, seed, "run0"), "run0")
    problems = problems or check_run_outputs(spec, inputs, "run0", env)

    with tracer.span("bench.reference_chains"):
        std, _ = standardize(load_dataset(inputs.data_path))
        # Chain 0 as run_chain runs it, timed per iteration; then the others.
        t0 = time.perf_counter()
        state = ChainState(std, config, chain_rng(config, 0))
        untraced = chain_iterations(state, config, lambda it: record(state, it))
        serial = [time.perf_counter() - t0]
        for i in range(1, config.n_chains):
            t0 = time.perf_counter()
            run_chain(std, config, i)
            serial.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_chains(std, config)
        out["sampler.pool_overhead_s"] = time.perf_counter() - t0 - max(serial)

    # Traced replay of what `dpsc run` does for chain 0.
    stats = {"c_new": 0, "c_moved": 0}
    records = []

    def traced_record(it):
        with tracer.span("sampler.joint_log_score"):
            score = state.joint_log_score()
        with tracer.span("sampler.record"):
            records.append(SampleRecord(it, state.test_partition(), score,
                                        len(state.pubs), len(state.types)))

    with contextlib.ExitStack() as stack:
        for layer, attr in SAMPLER_IMPORTS:
            original = getattr(dpsc.sampler, attr)
            stack.enter_context(patched(dpsc.sampler, attr, tracer.wrap(f"{layer}.{attr}", original)))
        with tracer.span("data.load_dataset"):
            dataset = load_dataset(inputs.data_path)
        with tracer.span("data.standardize"):
            std, _ = standardize(dataset)
        with tracer.span("sampler.init"):
            state = traced_chain_state(tracer, stats)(std, config, chain_rng(config, 0))
        traced = chain_iterations(state, config, traced_record)
        with tracer.span("sampler.extract_prediction"):
            prediction = extract_prediction([records])
        with tracer.span("partition.write_partition_file"):
            write_partition_file(prediction, env.workdir / "replay.pred.tsv")
        if "kmeans" in spec.flags:
            test = [i for i, s in enumerate(std.split) if s == "test"]
            k = len(set(inputs.gold))
            with tracer.span("baselines.kmeans"):
                baselines.kmeans(std.X[test], baselines.KMeansConfig(k=k, seed=seed),
                                 ids=inputs.test_ids)

    one = tracer.first_duration_s
    sweeps = tracer.indices("sampler.sweep")
    sweep_ms = [1e3 * tracer.duration_s(i) for i in sweeps]
    in_sweep = set(sweeps)
    child_s = {i: 0.0 for i in sweeps}
    pairwise_in_sweeps = []
    for i, nm in enumerate(tracer.names):
        if nm in ("sampler.sample_c", "sampler.sample_d"):
            child_s[tracer.parents[i]] += tracer.duration_s(i)
        elif nm == "gaussian.pairwise_sq_diff_sum":
            p = tracer.parents[i]
            while p >= 0 and p not in in_sweep:
                p = tracer.parents[p]
            if p >= 0:
                pairwise_in_sweeps.append(tracer.duration_s(i))
    c_calls = tracer.durations_s("sampler.sample_c")
    d_calls = tracer.durations_s("sampler.sample_d")
    iters = config.iterations
    out.update({
        "data.load_s": one("data.load_dataset"),
        "data.standardize_s": one("data.standardize"),
        "sampler.init_s": one("sampler.init"),
        "sampler.sweep_ms_p50": statistics.median(sweep_ms),
        "sampler.sweep_ms_p90": statistics.quantiles(sweep_ms, n=10)[8],
        "sampler.sweep_self_ms": 1e3 * statistics.fmean(
            tracer.duration_s(i) - child_s[i] for i in sweeps),
        "sampler.sample_c_us": 1e6 * statistics.fmean(c_calls) if c_calls else 0.0,
        "sampler.sample_c_calls": len(c_calls) / iters,
        "sampler.sample_d_us": 1e6 * statistics.fmean(d_calls) if d_calls else 0.0,
        "sampler.sample_d_calls": len(d_calls) / iters,
        "sampler.K_mean": statistics.fmean(r.n_publications for r in records),
        "sampler.T_mean": statistics.fmean(r.n_types for r in records),
        "sampler.c_moved_ratio": stats["c_moved"] / len(c_calls) if c_calls else 0.0,
        "sampler.new_cluster_ratio": stats["c_new"] / len(c_calls) if c_calls else 0.0,
        "sampler.score_ms": 1e3 * statistics.median(tracer.durations_s("sampler.joint_log_score")),
        "sampler.record_bytes": statistics.median(len(pickle.dumps(r)) for r in records),
        "gaussian.pairwise_sq_diff_sum_calls": len(pairwise_in_sweeps) / iters,
        "gaussian.pairwise_sq_diff_sum_ms": 1e3 * sum(pairwise_in_sweeps) / iters,
        "partition.write_s": one("partition.write_partition_file"),
        "baselines.kmeans_s": one("baselines.kmeans") if "kmeans" in spec.flags else 0.0,
        "trace.sweeps_per_s_untraced": iters / sum(untraced),
        "trace.sweeps_per_s_traced": iters / sum(traced),
    })
    out["trace.overhead_ratio"] = (
        out["trace.sweeps_per_s_untraced"] / out["trace.sweeps_per_s_traced"] - 1.0)
    # What the CLI's wall time is made of: interpreter and imports, input,
    # the slowest chain, the pool around the chains, output and baselines.
    accounted = (out["data.load_s"] + out["data.standardize_s"] + max(serial)
                 + out["sampler.pool_overhead_s"] + out["partition.write_s"]
                 + out["baselines.kmeans_s"])
    return out, wall, accounted, problems


# ---------------------------------------------------------------- evaluate


def crp_labels(rng, n, alpha):
    labels = np.empty(n, dtype=np.int64)
    k = 0
    for i in range(n):
        r = rng.random() * (alpha + i)
        if r < alpha:
            labels[i] = k
            k += 1
        else:
            labels[i] = labels[int(r - alpha)]
    return labels


def write_tsv(path, ids, labels, prefix):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{item}\t{prefix}{lab}\n" for item, lab in zip(ids, labels))


@dataclass
class EvalInputs:
    gold: np.ndarray
    near: np.ndarray
    fine: np.ndarray
    pool_paths: list
    pairs: list


def make_eval_inputs(seed, env):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 9, EVAL_ITEMS)
    k = int(np.searchsorted(np.cumsum(sizes), EVAL_ITEMS)) + 1
    gold = rng.permutation(np.repeat(np.arange(k), sizes[:k])[:EVAL_ITEMS])
    k = int(gold.max()) + 1
    near = gold.copy()
    moved = rng.choice(EVAL_ITEMS, int(EVAL_MOVED * EVAL_ITEMS), replace=False)
    near[moved] = (gold[moved] + rng.integers(1, k, len(moved))) % k
    fine = np.arange(EVAL_ITEMS)
    ids = [f"i{j:06d}" for j in range(EVAL_ITEMS)]
    write_tsv(env.workdir / "gold.tsv", ids, gold, "g")
    write_tsv(env.workdir / "near.tsv", ids, near, "h")
    write_tsv(env.workdir / "fine.tsv", ids, fine, "s")
    pool_paths, pairs = [], []
    for m, n in enumerate(rng.integers(80, 201, EVAL_POOLS)):
        labels = crp_labels(rng, int(n), EVAL_POOL_ALPHA)
        path = env.workdir / f"pool{m}.tsv"
        write_tsv(path, [f"p{m}-{j:03d}" for j in range(n)], labels, "c")
        pool_paths.append(path.name)
        pairs.append(ObservationPair(int(n), int(labels.max()) + 1))
    return EvalInputs(gold, near, fine, pool_paths, pairs)


def dpfit_ns(pairs):
    total = sum(p.n for p in pairs)
    return np.unique(np.linspace(1, total, min(DPFIT_POINTS, total)).astype(int))


SCORE_ARGS = ["score", "--gold", "gold.tsv", "near.tsv", "fine.tsv", "-o", "scores.csv"]


def dpfit_args(inputs, seed):
    return ["dpfit", *inputs.pool_paths, "--seed", str(seed), "-o", "curve.csv"]


def measure_evaluate(seed, seconds, env):
    inputs = make_eval_inputs(seed, env)
    outcome = Outcome()

    def make_steps():
        rng = np.random.default_rng(seed)
        prior = GammaPrior()
        alpha = prior.mean

        def set_up():
            t0 = time.perf_counter()
            for name in ("gold.tsv", "near.tsv", "fine.tsv"):
                read_partition_file(env.workdir / name)
            return time.perf_counter() - t0

        def block():
            nonlocal alpha
            t0 = time.perf_counter()
            for _ in range(EVAL_BLOCK_REFRESHES):
                alpha = sample_precision_multi(alpha, inputs.pairs, prior, rng)
            return time.perf_counter() - t0

        return set_up, block

    chunk_s = EVAL_IN_PROCESS_S * seconds / REFERENCE_SECONDS / 3
    with TimingWorkers(make_steps) as workers:
        workers.chunk(chunk_s)
        wall_score, rss_score, problems = run_cli(env, SCORE_ARGS, "score")
        expected = {"near.tsv": checks.score_row(inputs.gold, inputs.near),
                    "fine.tsv": checks.score_row(inputs.gold, inputs.fine)}
        outcome.record(problems or checks.score_problems(env.workdir / "scores.csv", expected))
        workers.chunk(chunk_s)
        wall_fit, rss_fit, problems = run_cli(env, dpfit_args(inputs, seed), "dpfit")
        outcome.record(problems or checks.curve_problems(env.workdir / "curve.csv",
                                                         dpfit_ns(inputs.pairs)))
        workers.chunk(chunk_s)

    metrics = {
        "wall_s": wall_score + wall_fit,
        "setup_s": statistics.median(workers.setups),
        "sweeps_per_s": EVAL_BLOCK_REFRESHES / statistics.median(workers.blocks),
        "peak_rss_mb": max(rss_score, rss_fit),
        # Equal to the CSV's value whenever the check above passed.
        "f_score": expected["near.tsv"]["f_score"],
        "setups_timed": len(workers.setups),
        "blocks_timed": len(workers.blocks),
    }
    return metrics, outcome


def trace_evaluate(seed, env, tracer):
    out = {}
    with tracer.span("bench.inputs"):
        inputs = make_eval_inputs(seed, env)
    with tracer.span("cli.score"):
        wall_score, _, problems = run_cli(env, SCORE_ARGS, "score")
    with tracer.span("cli.dpfit"):
        wall_fit, _, more = run_cli(env, dpfit_args(inputs, seed), "dpfit")
    problems += more

    with tracer.span("partition.read_partition_file"):
        gold = read_partition_file(env.workdir / "gold.tsv")
    near = read_partition_file(env.workdir / "near.tsv")
    fine = read_partition_file(env.workdir / "fine.tsv")
    with tracer.span("partition.write_partition_file"):
        write_partition_file(gold, env.workdir / "gold-copy.tsv")
    pools = [read_partition_file(env.workdir / p) for p in inputs.pool_paths]
    with tracer.span("metrics.pair_counts"):
        pair_counts(gold, near)
    with tracer.span("metrics.cluster_edit_distance.near"):
        cluster_edit_distance(gold, near)
        cluster_edit_distance(near, gold)
    with tracer.span("metrics.cluster_edit_distance.fine"):
        cluster_edit_distance(gold, fine)
        cluster_edit_distance(fine, gold)
    with tracer.span("metrics.variation_of_information"):
        variation_of_information(gold, near)
    with tracer.span("metrics.full_report"):
        full_report(gold, near)

    estimate = tracer.wrap("dp.estimate_precision", dpsc.dp.estimate_precision)
    with patched(dpsc.dp, "estimate_precision", estimate):
        with tracer.span("dp.appropriateness_curve"):
            appropriateness_curve(pools, dpfit_ns(inputs.pairs), DPFIT_RESAMPLES, GammaPrior(),
                                  np.random.default_rng(seed))

    one = tracer.first_duration_s
    out.update({
        "partition.read_s": one("partition.read_partition_file"),
        "partition.write_s": one("partition.write_partition_file"),
        "metrics.pair_counts_ms": 1e3 * one("metrics.pair_counts"),
        "metrics.cluster_edit_distance_ms.near": 1e3 * one("metrics.cluster_edit_distance.near"),
        "metrics.cluster_edit_distance_ms.fine": 1e3 * one("metrics.cluster_edit_distance.fine"),
        "metrics.vi_ms": 1e3 * one("metrics.variation_of_information"),
        "metrics.full_report_s": one("metrics.full_report"),
        "dp.estimate_precision_s": one("dp.estimate_precision"),
        "dp.curve_resample_s": one("dp.appropriateness_curve") - one("dp.estimate_precision"),
    })
    # `dpsc score` reads three partitions and runs full_report on near and
    # on fine; fine's report is its edit distances plus pair counts and VI.
    accounted = (3 * out["partition.read_s"] + out["metrics.full_report_s"]
                 + out["metrics.cluster_edit_distance_ms.fine"] / 1e3
                 + (out["metrics.pair_counts_ms"] + out["metrics.vi_ms"]) / 1e3
                 + one("dp.appropriateness_curve"))
    return out, wall_score + wall_fit, accounted, problems


# ---------------------------------------------------------------- entry points


def measure(name, seed, seconds, env):
    """End-to-end metrics with tracing off, and the run outcome."""
    if name == "evaluate":
        return measure_evaluate(seed, seconds, env)
    return measure_run(name, seed, seconds, env)


def trace(name, seed, env, tracer):
    """Per-layer metrics from a traced run, and the run outcome."""
    outcome = Outcome()
    with tracer.span("bench.run"):
        startup = cli_startup_s(env)
        if name == "evaluate":
            out, wall, accounted, problems = trace_evaluate(seed, env, tracer)
            startups = 2
        else:
            out, wall, accounted, problems = trace_run(name, seed, env, tracer)
            startups = 1
        outcome.record(problems)
        with tracer.span("bench.micro"):
            out.update(micro.run_all(seed))
    out["cli.startup_s"] = startup
    out["trace.wall_s_cli"] = wall
    out["trace.wall_accounted_ratio"] = (startups * startup + accounted) / wall
    own = tracer.self_time_by_layer()
    for layer in LAYERS:
        out[f"self_s.{layer}"] = own.get(layer, 0.0)
    out["trace.spans"] = len(tracer.names)
    return out, outcome
