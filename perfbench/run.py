#!/usr/bin/env python3
"""Run one benchmark workload against the SPEAR sources and print metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table3-batch --seed 1 --seconds 20 --trace 0

Workloads: ``table3-batch``, ``refine-loop``, ``serve-skewed`` (see
``perfbench/NOTES.md``).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` prints host throughput and latency and the per-layer
metrics of a traced run, and writes its spans to
``.perfbench/trace-<workload>-seed<seed>.json``.  Every
metric is printed on its own line with its unit and clock; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when an output
differs from its reference or a determinism gate fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("table3-batch", "refine-loop", "serve-skewed")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: SPEAR sources not found at {SRC / 'repro'}", file=sys.stderr)
        return 2
    for path in (SRC, HERE):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    # All threads of the run share one CPU.  Python threads hand the
    # interpreter lock to each other all the time; across CPUs each
    # hand-off waits for the other virtual CPU to wake, which on a busy
    # host halved table3-batch throughput (NOTES.md, "Host noise").
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    from benchlib.catalog import CLOCKS, metrics
    from benchlib.measure import run_workload

    outcome = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        ROOT / ".perfbench",
    )
    units = metrics(bool(args.trace))
    for name, unit in units.items():
        print(
            f"{args.workload:14s} {name:28s} {outcome.metrics[name]:14.6g} "
            f"{unit:6s} [{CLOCKS[name]}]"
        )
    print(
        f"{args.workload:14s} attempted={outcome.attempted} "
        f"failed={outcome.failed} correct={outcome.correct}"
    )
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
