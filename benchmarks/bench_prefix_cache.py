#!/usr/bin/env python
"""Radix prefix cache benchmark: hit-rate uplift, dedup speedup, eviction.

Runs the Table-3 workload (Map: summarize + Filter: negative sentiment
over the seeded tweet corpus, sharing the scaffold prefix) and measures
what the radix-tree prefix cache and prefix-aware scheduling buy:

- a **hit-rate arm**: sequential runs with the radix cache and with no
  prefix cache at all.  Outputs must be identical, the cached run must
  beat the no-cache run's simulated time, and the hit rate gates against
  ``--min-hit-rate`` (exact agreement with vLLM's hash-chain accounting
  is pinned in tier-1 by ``tests/llm/test_kv_cache_reference.py``);
- a **scheduler arm**: the 1/4/16-worker sweep through the continuous
  engine with prefix-aware admission (trunk grouping + intra-step dedup)
  enabled — outputs byte-identical to sequential, and the 16-worker
  speedup must come out *strictly above* ``--min-speedup`` (the PR 7
  engine's own 16-worker figure, so dedup must pay for itself);
- an **eviction-pressure arm**: the sequential workload replayed at 1/8
  of the blocks the full run needs and at one block below the shared
  scaffold trunk.  Leaf-first eviction must leave every resident block
  reachable from the root at both capacities, and the radix cache must
  keep serving the trunk (hit rate > 0) at trunk-sized capacity;
- a **determinism arm**: two same-seed ledgered scheduler runs must
  ``spear diff --gate`` to zero with prefix-aware admission on.

Writes ``BENCH_prefix.json`` at the repo root (``BENCH_prefix.tiny.json``
with ``--tiny``; or ``--output``) and exits non-zero when any gate
fails.

Usage::

    PYTHONPATH=src python benchmarks/bench_prefix_cache.py
    PYTHONPATH=src python benchmarks/bench_prefix_cache.py --tiny
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
from repro.core.state import ExecutionState  # noqa: E402
from repro.data import make_tweet_corpus  # noqa: E402
from repro.experiments.common import (  # noqa: E402
    FILTER_NEG_INSTRUCTION,
    MAP_INSTRUCTION,
    SCAFFOLD,
)
from repro.llm.model import SimulatedLLM  # noqa: E402
from repro.llm.radix_cache import (  # noqa: E402
    RadixPrefixCache,
    shared_prefix_tokens,
)
from repro.obs.ledger import Ledger  # noqa: E402
from repro.runtime.batch import BatchRunner  # noqa: E402
from repro.runtime.options import RuntimeOptions  # noqa: E402
from repro.runtime.parallel import ParallelBatchRunner  # noqa: E402

WORKER_COUNTS = (1, 4, 16)
EVICTION_DIVISOR = 8


def _build_state_with_cache(n_items: int, seed: int, kv_cache=None, **kwargs):
    """The Table-3 workload state with an explicit kv cache."""
    llm = SimulatedLLM(PROFILE, kv_cache=kv_cache, **kwargs)
    corpus = make_tweet_corpus(n_items, seed=seed)
    llm.bind_tweets(corpus)
    state = ExecutionState(model=llm, clock=llm.clock)
    state.prompts.create(
        "map_p", SCAFFOLD + "\n" + MAP_INSTRUCTION + "\nTweet:\n{tweet}"
    )
    state.prompts.create(
        "filter_p", SCAFFOLD + "\n" + FILTER_NEG_INSTRUCTION + "\nTweet:\n{tweet}"
    )
    return state, list(corpus)


def _sequential(n_items: int, seed: int, kv_cache=None, **kwargs):
    state, items = _build_state_with_cache(n_items, seed, kv_cache, **kwargs)
    batch = BatchRunner(state, bind=bind).run(build_pipeline(), items=items)
    return state, batch


def run_hit_rate_arm(n_items: int, seed: int) -> dict:
    """Table-3 hit-rate uplift: radix cache vs no prefix cache."""
    radix_state, radix_batch = _sequential(n_items, seed, RadixPrefixCache())
    _, cold_batch = _sequential(n_items, seed, enable_prefix_cache=False)
    if outputs_of(radix_batch) != outputs_of(cold_batch):
        raise AssertionError("prefix cache changed outputs — caching is broken")
    radix = radix_state.model.kv_cache.snapshot()
    return {
        "radix_hit_rate": round(radix["hit_rate"], 4),
        "cached_tokens": int(radix["cached_tokens"]),
        "resident_blocks": int(radix["blocks"]),
        "radix_nodes": int(radix["nodes"]),
        "radix_leaves": int(radix["leaves"]),
        "sim_elapsed_cached_s": radix_batch.elapsed,
        "sim_elapsed_uncached_s": cold_batch.elapsed,
        "uplift": round(
            cold_batch.elapsed / radix_batch.elapsed, 3
        )
        if radix_batch.elapsed
        else 0.0,
    }


def run_scheduler_arm(n_items: int, seed: int, sequential, baseline) -> dict:
    """Worker sweep with prefix-aware admission (the default engine)."""
    sweep = {}
    for workers in WORKER_COUNTS:
        state, items = build_state(n_items, seed)
        runner = ParallelBatchRunner(state, bind=bind, workers=workers)
        wall0 = time.perf_counter()
        batch = runner.run(build_pipeline(), items=items)
        host_wall = time.perf_counter() - wall0
        if outputs_of(batch) != baseline:
            raise AssertionError(
                f"workers={workers}: prefix-aware outputs diverged from "
                "the sequential baseline"
            )
        engine = runner.last_batcher
        snapshot = engine.snapshot()
        sweep[str(workers)] = {
            "sim_elapsed_s": batch.elapsed,
            "speedup": round(sequential.elapsed / batch.elapsed, 3)
            if batch.elapsed
            else 0.0,
            "host_wall_s": round(host_wall, 4),
            "steps": int(snapshot["flushes"]),
            "mean_step_size": round(snapshot["mean_batch_size"], 2),
            "dedup_tokens": int(snapshot["dedup_tokens"]),
            "mean_step_dedup_tokens": round(
                snapshot["mean_step_dedup_tokens"], 1
            ),
            "kv_hit_rate": round(
                state.model.kv_cache.snapshot()["hit_rate"], 4
            ),
        }
    return sweep


def _trunk_blocks() -> int:
    """Complete cache blocks of the Table-3 map prompt's shared trunk."""
    llm = SimulatedLLM(PROFILE)
    base = SCAFFOLD + "\n" + MAP_INSTRUCTION + "\nTweet:\n"
    a = llm.tokenizer.encode(base + "one tweet text here")
    b = llm.tokenizer.encode(base + "another different tweet")
    block = llm.kv_cache.block_size
    return shared_prefix_tokens(a, b, block) // block


def _reachable_blocks(cache: RadixPrefixCache) -> int:
    """Resident blocks reachable by a walk from the root (white-box)."""
    count, frontier = 0, [cache._root]
    while frontier:
        children = frontier.pop().children.values()
        count += len(children)
        frontier.extend(children)
    return count


def _at_capacity(n_items: int, seed: int, capacity: int) -> dict:
    state, _ = _sequential(
        n_items, seed, RadixPrefixCache(capacity_blocks=capacity)
    )
    cache = state.model.kv_cache
    radix = cache.snapshot()
    reachable = _reachable_blocks(cache)
    if reachable != radix["blocks"]:
        raise AssertionError(
            f"eviction arm: {radix['blocks'] - reachable} resident blocks "
            f"unreachable from the root at capacity {capacity}"
        )
    return {
        "capacity_blocks": capacity,
        "radix_hit_rate": round(radix["hit_rate"], 4),
        "radix_evictions": int(radix["evictions"]),
        "resident_blocks": int(radix["blocks"]),
        "reachable_blocks": reachable,
    }


def run_eviction_arm(n_items: int, seed: int, full_blocks: int) -> dict:
    """The radix cache under eviction pressure.

    Leaf-first eviction reclaims subtrees bottom-up, so no resident
    block is ever stranded behind an evicted parent; both rows check
    that a walk from the root reaches every resident block.  Rows:

    - ``pressure``: 1/8 of the blocks the full workload needs;
    - ``trunk_collapse``: capacity one block below the shared scaffold
      trunk — a flat LRU over blocks cycles the trunk's head out on
      every insert and serves nothing, while the radix cache keeps the
      hot trunk resident: its hit rate must stay above zero.
    """
    capacity = max(1, full_blocks // EVICTION_DIVISOR)
    pressure = _at_capacity(n_items, seed, capacity)
    trunk = _trunk_blocks()
    collapse = _at_capacity(n_items, seed, max(1, trunk - 1))
    if collapse["radix_hit_rate"] <= 0.0:
        raise AssertionError(
            "eviction arm: the radix cache served nothing at trunk-sized "
            f"capacity {collapse['capacity_blocks']}"
        )
    return {
        "full_workload_blocks": full_blocks,
        "trunk_blocks": trunk,
        "pressure": pressure,
        "trunk_collapse": collapse,
    }


def run_determinism_arm(n_items: int, seed: int, workers: int) -> dict:
    """Two same-seed ledgered runs must ``spear diff --gate`` to zero."""
    with tempfile.TemporaryDirectory(prefix="bench_prefix_") as tmp:
        run_dirs = []
        for rep in range(2):
            root = Path(tmp) / f"runs_{rep}"
            state, items = build_state(n_items, seed)
            ParallelBatchRunner(
                state,
                bind=bind,
                workers=workers,
                options=RuntimeOptions(ledger_dir=root),
            ).run(build_pipeline(), items=items)
            run_dirs.append(Ledger(root).latest().path)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            code = spear_main(
                ["diff", str(run_dirs[0]), str(run_dirs[1]), "--gate"]
            )
    if code != 0:
        raise AssertionError(
            f"spear diff --gate exited {code}: same-seed prefix-aware runs "
            f"are not deterministic\n{sink.getvalue()}"
        )
    return {"workers": workers, "diff_gate_exit": code, "identical": True}


def run_benchmark(n_items: int, seed: int) -> dict:
    state, items = build_state(n_items, seed)
    wall0 = time.perf_counter()
    sequential = BatchRunner(state, bind=bind).run(build_pipeline(), items=items)
    seq_wall = time.perf_counter() - wall0
    baseline = outputs_of(sequential)
    full_blocks = int(state.model.kv_cache.snapshot()["blocks"])

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
        "hit_rate": run_hit_rate_arm(n_items, seed),
        "scheduler": run_scheduler_arm(n_items, seed, sequential, baseline),
        "eviction_pressure": run_eviction_arm(n_items, seed, full_blocks),
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
        "--min-speedup", type=float, default=6.123,
        help="fail unless the 16-worker speedup is STRICTLY above this "
        "(default: the PR 7 engine's own 16-worker figure)",
    )
    parser.add_argument(
        "--min-hit-rate", type=float, default=0.5,
        help="fail when the Table-3 radix hit rate is below this",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="result file (default BENCH_prefix.json at the repo root, "
        "BENCH_prefix.tiny.json with --tiny)",
    )
    args = parser.parse_args(argv)
    output = args.output or REPO_ROOT / (
        "BENCH_prefix.tiny.json" if args.tiny else "BENCH_prefix.json"
    )

    n_items = 48 if args.tiny else args.items
    result = run_benchmark(n_items, args.seed)

    widest = str(max(WORKER_COUNTS))
    speedup = result["scheduler"][widest]["speedup"]
    hit_rate = result["hit_rate"]["radix_hit_rate"]
    result["widest_workers"] = int(widest)
    result["widest_speedup"] = speedup
    result["min_speedup"] = args.min_speedup
    result["min_hit_rate"] = args.min_hit_rate
    result["ok"] = speedup > args.min_speedup and hit_rate >= args.min_hit_rate

    output.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {output}")
    print(
        f"sequential: {result['sequential']['sim_elapsed_s']:.2f}s simulated, "
        f"{result['sequential']['items_per_sim_s']:.3f} items/s"
    )
    hr = result["hit_rate"]
    print(
        f"hit rate: radix {hr['radix_hit_rate']:.1%}, "
        f"{hr['uplift']:.2f}x simulated-time uplift over no cache"
    )
    for workers in WORKER_COUNTS:
        row = result["scheduler"][str(workers)]
        print(
            f"workers={workers:3d}: speedup {row['speedup']:.2f}x, "
            f"{row['steps']} steps (mean size {row['mean_step_size']}), "
            f"dedup {row['dedup_tokens']} tokens "
            f"({row['mean_step_dedup_tokens']}/step)"
        )
    ev = result["eviction_pressure"]
    pr, tc = ev["pressure"], ev["trunk_collapse"]
    print(
        f"eviction @ {pr['capacity_blocks']} blocks (1/{EVICTION_DIVISOR} "
        f"of {ev['full_workload_blocks']}): radix {pr['radix_hit_rate']:.1%}, "
        f"{pr['radix_evictions']} evictions, all resident blocks reachable"
    )
    print(
        f"trunk collapse @ {tc['capacity_blocks']} blocks (trunk is "
        f"{ev['trunk_blocks']}): radix {tc['radix_hit_rate']:.1%}, "
        f"{tc['radix_evictions']} evictions"
    )
    print(
        f"determinism: same-seed runs diff --gate exit "
        f"{result['determinism']['diff_gate_exit']} (identical)"
    )
    if not result["ok"]:
        if speedup <= args.min_speedup:
            print(
                f"FAIL: 16-worker speedup {speedup:.3f}x is not strictly "
                f"above the required {args.min_speedup}x",
                file=sys.stderr,
            )
        if hit_rate < args.min_hit_rate:
            print(
                f"FAIL: radix hit rate {hit_rate:.1%} is below the "
                f"required {args.min_hit_rate:.1%}",
                file=sys.stderr,
            )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
