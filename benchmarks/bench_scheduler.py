#!/usr/bin/env python
"""Continuous-batching scheduler benchmark: GEN engine vs sequential.

Runs the Table-3 workload (Map: summarize + Filter: negative sentiment
over the seeded tweet corpus, sharing the scaffold prefix) through the
event-driven :class:`~repro.runtime.scheduler.GenScheduler` and reports,
per worker count, the simulated-time speedup over the sequential
baseline plus the engine's own accounting: steps, mean step size, queue
wait p50/p99, forced (watermark) admissions, and preemptions.

Four additional arms exercise the policy surface:

- a **token-budget sweep** at the widest worker count (steps must stay
  within ``max_batch_tokens`` while outputs stay byte-identical);
- a **mixed-priority arm** (every 4th item ``interactive`` with a
  deadline, the rest ``bulk``) asserting the interactive class waits no
  longer than bulk at the median and that preemptions are counted;
- a **determinism arm**: two same-seed ledgered runs must ``spear diff
  --gate`` to zero — batch composition is a function of the workload,
  never of host thread timing;
- byte-identity everywhere: every scheduled arm's outputs are compared
  against the sequential baseline and must match exactly.

Writes ``BENCH_scheduler.json`` at the repo root
(``BENCH_scheduler.tiny.json`` with ``--tiny``; or ``--output``) and
exits non-zero when the speedup at the widest configuration falls below
``--min-speedup`` (CI gates at 3.0 at 16 workers).

Usage::

    PYTHONPATH=src python benchmarks/bench_scheduler.py
    PYTHONPATH=src python benchmarks/bench_scheduler.py --tiny
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
for entry in (str(SRC), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.bench_throughput_parallel import (  # noqa: E402
    PROFILE,
    bind,
    build_pipeline,
    build_state,
    outputs_of,
)
from repro.cli import main as spear_main  # noqa: E402
from repro.obs.ledger import Ledger  # noqa: E402
from repro.runtime.batch import BatchRunner  # noqa: E402
from repro.runtime.options import RuntimeOptions  # noqa: E402
from repro.runtime.parallel import ParallelBatchRunner  # noqa: E402
from repro.runtime.scheduler import SchedulerConfig  # noqa: E402

WORKER_COUNTS = (1, 4, 16)
TOKEN_BUDGETS = (1024, 320)


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


def _engine_stats(runner: ParallelBatchRunner) -> dict:
    engine = runner.last_batcher
    waits = [
        member.wait for record in engine.steps for member in record.members
    ]
    snapshot = engine.snapshot()
    return {
        "steps": int(snapshot["flushes"]),
        "mean_step_size": round(snapshot["mean_batch_size"], 2),
        "largest_step": int(snapshot["largest_batch"]),
        "forced": int(snapshot["forced"]),
        "preemptions": int(snapshot["preemptions"]),
        "wait_p50_s": round(_quantile(waits, 0.50), 4),
        "wait_p99_s": round(_quantile(waits, 0.99), 4),
    }


def _scheduled_run(
    n_items: int,
    seed: int,
    workers: int,
    *,
    options: RuntimeOptions | None = None,
) -> tuple[ParallelBatchRunner, object, float]:
    state, items = build_state(n_items, seed)
    runner = ParallelBatchRunner(
        state, bind=bind, workers=workers, options=options or RuntimeOptions()
    )
    wall0 = time.perf_counter()
    batch = runner.run(build_pipeline(), items=items)
    return runner, batch, time.perf_counter() - wall0


def _assert_identical(batch, baseline_outputs, arm: str) -> None:
    if outputs_of(batch) != baseline_outputs:
        raise AssertionError(
            f"{arm}: scheduled outputs diverged from the sequential baseline"
        )


def run_worker_sweep(n_items: int, seed: int, sequential, baseline) -> dict:
    sweep = {}
    for workers in WORKER_COUNTS:
        runner, batch, host_wall = _scheduled_run(n_items, seed, workers)
        _assert_identical(batch, baseline, f"workers={workers}")
        speedup = sequential.elapsed / batch.elapsed if batch.elapsed else 0.0
        sweep[str(workers)] = {
            "sim_elapsed_s": batch.elapsed,
            "items_per_sim_s": batch.throughput,
            "speedup": round(speedup, 3),
            "utilization": round(
                sequential.elapsed / (workers * batch.elapsed), 3
            )
            if batch.elapsed
            else 0.0,
            "host_wall_s": round(host_wall, 4),
            **_engine_stats(runner),
        }
    return sweep


def run_token_budget_sweep(
    n_items: int, seed: int, workers: int, sequential, baseline
) -> dict:
    sweep = {}
    for budget in TOKEN_BUDGETS:
        config = SchedulerConfig(max_batch_tokens=budget)
        runner, batch, _ = _scheduled_run(
            n_items, seed, workers, options=RuntimeOptions(scheduler=config)
        )
        _assert_identical(batch, baseline, f"max_batch_tokens={budget}")
        engine = runner.last_batcher
        oversize = [
            record
            for record in engine.steps
            if record.tokens > budget and record.size > 1
        ]
        if oversize:
            raise AssertionError(
                f"max_batch_tokens={budget}: {len(oversize)} steps exceeded "
                "the token budget with more than one member"
            )
        speedup = sequential.elapsed / batch.elapsed if batch.elapsed else 0.0
        sweep[str(budget)] = {
            "speedup": round(speedup, 3),
            **_engine_stats(runner),
        }
    return sweep


def run_mixed_priority_arm(
    n_items: int, seed: int, workers: int, baseline
) -> dict:
    """Every 4th item is interactive with a deadline; the rest are bulk."""

    def priority_of(item) -> str:
        return "interactive" if int(item.uid[-1]) % 4 == 0 else "bulk"

    options = RuntimeOptions(
        scheduler=SchedulerConfig(max_batch=4, watermark_s=1e9),
        priority=priority_of,
        deadline_s=lambda item: 2.0 if priority_of(item) == "interactive" else None,
    )
    runner, batch, _ = _scheduled_run(n_items, seed, workers, options=options)
    _assert_identical(batch, baseline, "mixed-priority")
    engine = runner.last_batcher
    stats = engine.wait_stats()
    interactive, bulk = stats["interactive"], stats["bulk"]
    if interactive["p50"] > bulk["p50"]:
        raise AssertionError(
            f"interactive p50 wait {interactive['p50']:.4f}s exceeds "
            f"bulk p50 {bulk['p50']:.4f}s — the priority policy is inverted"
        )
    return {
        "workers": workers,
        "preemptions": int(engine.preemptions),
        "classes": {
            name: {
                "count": class_stats["count"],
                "wait_mean_s": round(class_stats["mean"], 4),
                "wait_p50_s": round(class_stats["p50"], 4),
                "wait_p95_s": round(class_stats["p95"], 4),
            }
            for name, class_stats in sorted(stats.items())
        },
    }


def run_determinism_arm(n_items: int, seed: int, workers: int) -> dict:
    """Two same-seed ledgered runs must ``spear diff --gate`` to zero."""
    with tempfile.TemporaryDirectory(prefix="bench_sched_") as tmp:
        run_dirs = []
        for rep in range(2):
            root = Path(tmp) / f"runs_{rep}"
            _scheduled_run(
                n_items,
                seed,
                workers,
                options=RuntimeOptions(ledger_dir=root),
            )
            run_dirs.append(Ledger(root).latest().path)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            code = spear_main(
                ["diff", str(run_dirs[0]), str(run_dirs[1]), "--gate"]
            )
    if code != 0:
        raise AssertionError(
            f"spear diff --gate exited {code}: same-seed scheduler runs "
            f"are not deterministic\n{sink.getvalue()}"
        )
    return {"workers": workers, "diff_gate_exit": code, "identical": True}


def run_benchmark(n_items: int, seed: int) -> dict:
    pipeline = build_pipeline()
    state, items = build_state(n_items, seed)
    wall0 = time.perf_counter()
    sequential = BatchRunner(state, bind=bind).run(pipeline, items=items)
    seq_wall = time.perf_counter() - wall0
    baseline = outputs_of(sequential)

    widest = max(WORKER_COUNTS)
    return {
        "profile": PROFILE,
        "items": n_items,
        "seed": seed,
        "sequential": {
            "sim_elapsed_s": sequential.elapsed,
            "items_per_sim_s": sequential.throughput,
            "host_wall_s": round(seq_wall, 4),
        },
        "scheduler": run_worker_sweep(n_items, seed, sequential, baseline),
        "token_budget": run_token_budget_sweep(
            n_items, seed, widest, sequential, baseline
        ),
        "mixed_priority": run_mixed_priority_arm(n_items, seed, 8, baseline),
        "determinism": run_determinism_arm(n_items, seed, widest),
        "outputs_identical": True,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--items", type=int, default=120, help="corpus size (default 120)"
    )
    parser.add_argument(
        "--tiny", action="store_true",
        help="CI smoke: 48 items, same arms",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--min-speedup", type=float, default=3.0,
        help="fail when speedup at the widest worker count is below this",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="result file (default BENCH_scheduler.json at the repo root, "
        "BENCH_scheduler.tiny.json with --tiny)",
    )
    args = parser.parse_args(argv)
    output = args.output or REPO_ROOT / (
        "BENCH_scheduler.tiny.json" if args.tiny else "BENCH_scheduler.json"
    )

    n_items = 48 if args.tiny else args.items
    result = run_benchmark(n_items, args.seed)

    widest = str(max(WORKER_COUNTS))
    speedup = result["scheduler"][widest]["speedup"]
    result["widest_workers"] = int(widest)
    result["widest_speedup"] = speedup
    result["min_speedup"] = args.min_speedup
    result["ok"] = speedup >= args.min_speedup

    output.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {output}")
    print(
        f"sequential: {result['sequential']['sim_elapsed_s']:.2f}s simulated, "
        f"{result['sequential']['items_per_sim_s']:.3f} items/s"
    )
    for workers in WORKER_COUNTS:
        row = result["scheduler"][str(workers)]
        print(
            f"workers={workers:3d}: speedup {row['speedup']:.2f}x, "
            f"{row['steps']} steps (mean size {row['mean_step_size']}), "
            f"wait p50 {row['wait_p50_s']:.3f}s / p99 {row['wait_p99_s']:.3f}s, "
            f"utilization {row['utilization']:.0%}"
        )
    mixed = result["mixed_priority"]
    print(
        "mixed priority: interactive p50 "
        f"{mixed['classes']['interactive']['wait_p50_s']:.3f}s vs bulk "
        f"{mixed['classes']['bulk']['wait_p50_s']:.3f}s, "
        f"{mixed['preemptions']} preemptions"
    )
    print(
        f"determinism: same-seed runs diff --gate exit "
        f"{result['determinism']['diff_gate_exit']} (identical)"
    )
    if not result["ok"]:
        print(
            f"FAIL: speedup at {widest} workers is {speedup:.2f}x "
            f"< required {args.min_speedup}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
