#!/usr/bin/env python
"""Incremental re-check micro-bench: warm strict mode must be ~free.

Builds a moderately branchy pipeline, runs the full static analysis
cold (graph build + every analyzer), then re-checks it through the
:class:`~repro.analysis.cache.CheckCache` many times.  Asserts:

- warm re-checks are at least ``--min-speedup`` (CI: 10x) faster than
  cold analyses, amortized;
- warm results are the *same object* the cold run produced (O(1)
  lookup, byte-identical diagnostics by construction);
- the serve registration path stays clean: a clean pipeline registers
  on a :class:`~repro.serve.server.SpearServer` with strict-by-default
  validation and no warnings.

Writes ``BENCH_check_cache.json`` at the repo root
(``BENCH_check_cache.tiny.json`` with ``--tiny``; or ``--output``).

Usage::

    PYTHONPATH=src python benchmarks/bench_check_cache.py
    PYTHONPATH=src python benchmarks/bench_check_cache.py --tiny
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import CheckCache, check_pipeline  # noqa: E402
from repro.core import (  # noqa: E402
    CHECK,
    GEN,
    REF,
    RET,
    Condition,
    Pipeline,
    RefAction,
)
from repro.serve import SpearServer  # noqa: E402


def build_pipeline(stages: int) -> Pipeline:
    ops = [
        RET("notes", into="material"),
        REF(RefAction.CREATE, "Answer from: {material}. ", key="qa"),
    ]
    for stage in range(stages):
        ops.append(GEN(f"answer_{stage}", prompt="qa"))
        ops.append(
            CHECK(
                Condition.metadata_below("confidence", 0.7),
                then=REF(
                    RefAction.APPEND,
                    f"Refine pass {stage}: cite evidence.",
                    key=f"refine_{stage}",
                ),
            )
        )
    ops.append(GEN("final", prompt="qa"))
    return Pipeline(ops, name="bench_check_cache")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tiny", action="store_true", help="CI-sized run")
    parser.add_argument("--min-speedup", type=float, default=10.0)
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args()

    stages = 4 if args.tiny else 12
    cold_reps = 5 if args.tiny else 20
    warm_reps = 200 if args.tiny else 1000
    pipeline = build_pipeline(stages)
    env = {"runtime": {"scheduler": True, "deadline_s": 300.0}}

    # Best-of-N timing on both sides: the means drift with scheduler
    # jitter on sub-millisecond workloads, the minima do not.
    cold_times = []
    for __ in range(cold_reps):
        start = time.perf_counter()
        cold_result = check_pipeline(pipeline, **env)
        cold_times.append(time.perf_counter() - start)
    cold_seconds = min(cold_times)

    cache = CheckCache()
    warm_result = cache.check(pipeline, **env)  # populate: one miss
    chunk = max(1, warm_reps // 10)
    warm_times = []
    for __ in range(warm_reps // chunk):
        start = time.perf_counter()
        for __ in range(chunk):
            warm_result = cache.check(pipeline, **env)
        warm_times.append((time.perf_counter() - start) / chunk)
    warm_seconds = min(warm_times)

    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    identical = [d.render() for d in warm_result] == [
        d.render() for d in cold_result
    ]

    # The serve registration path: strict by default, clean, warning-free.
    server = SpearServer(workers=2)
    clean = Pipeline(
        [
            REF(RefAction.CREATE, "Summarize the ticket.", key="qa"),
            GEN("answer", prompt="qa"),
        ],
        name="serve_clean",
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        server.register_pipeline("clean", clean, prompts={})
    serve_warnings = [str(w.message) for w in caught]

    payload = {
        "stages": stages,
        "cold_seconds": round(cold_seconds, 6),
        "warm_seconds": round(warm_seconds, 9),
        "speedup": round(speedup, 2),
        "min_speedup": args.min_speedup,
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "results_identical": identical,
        "serve_registration_warnings": serve_warnings,
    }
    output = args.output or REPO_ROOT / (
        "BENCH_check_cache.tiny.json" if args.tiny else "BENCH_check_cache.json"
    )
    output.write_text(json.dumps(payload, indent=2))
    print(json.dumps(payload, indent=2))

    if not identical:
        print("FAIL: warm diagnostics differ from cold", file=sys.stderr)
        return 1
    if serve_warnings:
        print("FAIL: clean serve registration warned", file=sys.stderr)
        return 1
    if speedup < args.min_speedup:
        print(
            f"FAIL: warm re-check speedup {speedup:.1f}x is below the "
            f"{args.min_speedup:.0f}x bar",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: warm re-check {speedup:.0f}x faster than cold "
        f"({cache.hits} hits / {cache.misses} miss)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
