"""dpsc benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload small-m1 --seed 1 --seconds 38 --trace 0

Run from the root of a dpsc checkout; the program is imported and run from
``src/`` there.  With ``--trace 0`` the run measures the end-to-end metrics
named in ``BENCHMARK.json``, with tracing off; with ``--trace 1`` it
replays the workload with spans around each layer's calls and reports the
per-layer metrics, writing the spans to ``.bench_out/``.  Human-readable
lines come first; the last line of standard output is the JSON result.

``--seconds`` scales the in-process time (set-ups and timed blocks); at
38, the value in ``BENCHMARK.json``, runs take 34-45 s on 2 CPUs.  BLAS
threads are pinned to 1 here and in every child, so the CLI's two chain
workers do not oversubscribe two cores.
See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["small-m1", "many-m1", "cond-m3", "evaluate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def git_commit():
    """HEAD's commit id read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args):
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "blas_threads": 1,
    }


def main(argv=None):
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "dpsc" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a dpsc checkout (needs src/dpsc and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ.update(BLAS_THREADS, TMPDIR=str(workdir / "tmp"))
    sys.path.insert(0, str(SRC))
    try:
        import workloads
        from tracing import Tracer

        env = workloads.Env(ROOT, workdir)
        record = environment(args)
        print("environment: " + json.dumps(record))
        if args.trace:
            run_id = f"{args.workload}-s{args.seed}-{os.getpid()}-{time.time_ns()}"
            tracer = Tracer(run_id)
            values, outcome = workloads.trace(args.workload, args.seed, env, tracer)
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            trace_path = out_dir / f"trace-{args.workload}-s{args.seed}.jsonl"
            tracer.write(trace_path, {"environment": record})
            print(f"spans: {len(tracer.names)} written to {trace_path.relative_to(ROOT)}")
            print("self time by layer (s): " + ", ".join(
                f"{layer} {values[f'self_s.{layer}']:.3f}" for layer in workloads.LAYERS))
        else:
            values, outcome = workloads.measure(args.workload, args.seed, args.seconds, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # A layer the workload does not run reports 0.
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    for name in sorted(set(values) - set(metrics)):
        print(f"{name:48s} {values[name]:.6g} (printed only)")
    print(f"{'fail_ratio':48s} {outcome.failed / outcome.attempted:.6g} "
          f"({outcome.failed} of {outcome.attempted} runs)")
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
