"""Run one workload over several seeds and summarize each metric.

    python3 bench/collect.py --workload cond-m3 --seeds 1-10 [--trace 1] [-o out.json]

For each metric: the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, the interquartile range as a share of the median; for the
values printed but not in the JSON result (``f_score``), each run's value.
Runs go one after another, from the root of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("-o", "--output")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    values, units, printed, run_s, failed = {}, {}, {}, [], 0
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        run_s.append(time.perf_counter() - t0)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        for line in proc.stdout.splitlines():
            name, _, rest = line.partition(" ")
            if rest.endswith("(printed only)"):
                printed.setdefault(name, []).append(float(rest.split()[0]))
        print(f"seed {seed}: {run_s[-1]:.1f} s, failed {result['failed']}", file=sys.stderr)

    summary = {
        "workload": args.workload,
        "seeds": args.seeds,
        "failed_runs": failed,
        "run_s": summarize(run_s),
        "metrics": {name: {"unit": units[name], **summarize(v)} for name, v in values.items()},
        "printed_only": printed,
    }
    for name, s in summary["metrics"].items():
        print(f"{args.workload:9s} {name:48s} median {s['median']:.6g} {s['unit']:6s} "
              f"spread {s['spread']:.3f}")
    if args.output:
        Path(args.output).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
