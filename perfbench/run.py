"""Run one workload of the benchmark and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload debug-table3 --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  The metric names and units come from ``BENCHMARK.json``; the
last line printed is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only for a run whose
correctness checks all passed and in which no attempt failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("debug-table3", "serve-wire-observe")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import harness
        if args.workload == "debug-table3":
            import debug_table3 as workload
        else:
            import serving as workload
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    run = (workload.run if args.workload == "debug-table3"
           else workload.serve_wire_observe)
    result = run(args.seed, args.seconds, trace, HERE / "out")
    metrics = dict(result.metrics)
    if not trace:
        metrics["rss_mb"] = harness.peak_rss_mb()
    declared = spec["per_layer" if trace else "end_to_end"]
    names = [entry["name"] for entry in declared]
    if set(metrics) != set(names):
        print(f"perfbench: {args.workload} reported {sorted(metrics)}, "
              f"BENCHMARK.json declares {sorted(names)}", file=sys.stderr)
        return 3

    print(f"== {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for line in result.lines:
        print(line)
    for entry in declared:
        print(f"  {entry['name']:<28} {metrics[entry['name']]:>14.6g} "
              f"{entry['unit']}")
    outcomes = result.outcomes
    if outcomes.failed:
        print(f"CHECK FAILED: {outcomes.failed} of {outcomes.attempted} "
              f"attempts failed: {dict(outcomes.reasons)}")
    for error in result.errors:
        print(f"CHECK FAILED: {error}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {entry["name"]: {"value": metrics[entry["name"]],
                                    "unit": entry["unit"]}
                    for entry in declared},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
