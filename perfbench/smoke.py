"""Tiny-size smoke test of the benchmark.

Run from the repository root::

    python3 perfbench/smoke.py

For every workload in ``BENCHMARK.json`` it runs one short untraced
and one short traced run and checks that the run passes its own
output checks, that every named metric is printed with its unit, that
no end-to-end metric is 0, and that in the traced run no layer self
time nor ``unattributed_ms`` is negative and together they add up to
``trace.e2e_ms``.  It also
checks that the benchmark refuses to run, printing no result, in a
directory that holds only ``BENCHMARK.json`` and ``perfbench/``.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAILED: {message}")


def run(cwd: str, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, check=False,
    )


def check_result(config: dict, workload: str, trace: int) -> None:
    completed = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    check(completed.returncode == 0,
          f"{where} exited {completed.returncode}: {completed.stderr}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{where} result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0,
          f"{where} output checks failed")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{where} attempted {result['attempted']!r}")
    declared = config["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    check(list(metrics) == [m["name"] for m in declared],
          f"{where} prints {sorted(metrics)}")
    for spec in declared:
        metric = metrics[spec["name"]]
        check(metric["unit"] == spec["unit"],
              f"{where} {spec['name']} unit {metric['unit']!r}")
        check(isinstance(metric["value"], (int, float)),
              f"{where} {spec['name']} value {metric['value']!r}")
        if not trace:
            check(metric["value"] > 0, f"{where} {spec['name']} is 0")
    if trace:
        # Layer self times and the remainder: a double-counted or
        # overlapping span would drive one of them below 0.
        times = {name: value["value"] for name, value in metrics.items()
                 if value["unit"] == "ms/op" and name.endswith("_ms")
                 and not name.startswith(("trace.", "resilience."))}
        for name, value in times.items():
            check(value >= 0, f"{where} {name} = {value} < 0")
        busy = sum(times.values())
        total = metrics["trace.e2e_ms"]["value"]
        check(abs(busy - total) <= 1e-6 * max(total, 1.0),
              f"{where} layers + unattributed = {busy}, e2e = {total}")
    print(f"smoke: {where}: ok ({result['attempted']} operations)")


def check_refuses_without_sources() -> None:
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        completed = run(bare, "player", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(completed.returncode != 0, "ran without the package sources")
    check(completed.stdout.strip() == "",
          "printed a result without the package sources")
    print("smoke: refuses to run without sources: ok")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        config = json.load(handle)
    for workload in config["workloads"]:
        for trace in (0, 1):
            check_result(config, workload["name"], trace)
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
