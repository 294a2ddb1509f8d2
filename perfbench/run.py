"""Wall-clock benchmark of the player, the studio and the XKMS wire path.

Run from the repository root::

    python3 perfbench/run.py --workload player --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` first runs the workload untraced for a share of
``--seconds``, then replays the same seeded operations on a fresh set-up
with every layer entry point wrapped (see ``tracing.py``), and reports
per-layer self times, counts, the unattributed remainder and the
tracing overhead.  The spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output check passed.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before any import
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-ups before and after the measured loop of an untraced run;
#: ``setup_s`` reports the median of all of them.  Spreading them over
#: the run keeps one slow spell of the host from covering them all.
SETUPS_BEFORE = 2
SETUPS_AFTER = 3
#: Share of ``--seconds`` the traced run spends on its untraced pass.
TRACE_BASELINE_SHARE = 0.4

WORKLOADS = ("player", "player_pure", "xkms")


def _workload(name: str):
    if name == "xkms":
        from xkms_load import XKMSWorkload
        return XKMSWorkload()
    from player_load import PlayerWorkload
    return PlayerWorkload("pure" if name == "player_pure"
                          else "accelerated")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced(workload, seed: int, seconds: float,
             import_s: float) -> tuple:
    from common import end_to_end, peak_rss_mb
    durations = []

    def timed_setup():
        started = time.perf_counter()
        world = workload.setup(seed)
        durations.append(time.perf_counter() - started)
        return world

    for _ in range(SETUPS_BEFORE):
        world = timed_setup()
    outcome = workload.run(world, seed, seconds=seconds)
    del world
    for _ in range(SETUPS_AFTER):
        timed_setup()
    metrics = {name: _metric(value, unit)
               for name, (value, unit) in end_to_end(outcome).items()}
    metrics["setup_s"] = _metric(
        import_s + statistics.median(durations), "s")
    metrics["peak_rss_mb"] = _metric(peak_rss_mb(), "MB")
    return outcome, metrics


def traced(workload, name: str, seed: int, seconds: float) -> tuple:
    from repro.primitives.provider import available_providers, get_provider
    from tracing import Tracer, per_layer_metrics
    baseline = workload.run(workload.setup(seed), seed,
                            seconds=seconds * TRACE_BASELINE_SHARE)
    world = workload.setup(seed)
    tracer = Tracer()
    tracer.install([get_provider(p) for p in available_providers()])
    try:
        outcome = workload.run(world, seed, steps=baseline.steps,
                               tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = per_layer_metrics(
        tracer, outcome, baseline,
        workload.layer_counts(world, outcome, tracer),
    )
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.dump(os.path.join(out_dir, f"trace-{name}-{seed}.jsonl.gz"))
    # Both passes must be correct; the replay must repeat the baseline.
    if outcome.attempted != baseline.attempted:
        outcome.fail(f"traced replay ran {outcome.attempted} operations, "
                     f"the untraced pass {baseline.attempted}")
    outcome.failed += baseline.failed
    outcome.failures += baseline.failures
    outcome.attempted += baseline.attempted
    return outcome, {name: _metric(value, unit)
                     for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no package sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = _workload(args.workload)
    import_s = time.perf_counter() - STARTED
    if args.trace:
        outcome, metrics = traced(workload, args.workload, args.seed,
                                  args.seconds)
    else:
        outcome, metrics = untraced(workload, args.seed, args.seconds,
                                    import_s)
    for message in outcome.failures:
        print(f"perfbench: failed: {message}", file=sys.stderr)
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
