"""Run each workload several times and report how steady each metric is.

Run from the repository root::

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --workloads xkms --runs 5 --first-seed 11

Run *i* uses seed ``--first-seed + i``.  For every end-to-end metric
the report gives the median, the first and third quartiles (as
``statistics.quantiles(values, n=4)`` computes them) and the spread:
the distance between the quartiles as a share of the median.  Each
spread is compared with the metric's bound in ``BENCHMARK.json``;
the command exits 1 when one is over.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; returns its result object."""
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stderr}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        config = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in config["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=config["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    over = []
    for workload in args.workloads:
        results = []
        for i in range(args.runs):
            result = run_once(workload, args.first_seed + i, args.seconds)
            results.append(result)
            print(f"{workload} seed {args.first_seed + i}: attempted "
                  f"{result['attempted']} failed {result['failed']}",
                  file=sys.stderr, flush=True)
        print(f"== {workload}: {args.runs} runs of {args.seconds:g}s")
        print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}  unit")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            median, q1, q3, share = spread(values)
            bound = bounds[name]
            flag = ""
            if share > bound:
                flag = "  OVER"
                over.append((workload, name))
            print(f"{name:34s} {median:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{share:8.2%} {bound:>6}"
                  f"  {first['unit']}{flag}")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
