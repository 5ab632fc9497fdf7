#!/usr/bin/env python
"""Result-cache benchmark: incremental vs full refinement-loop re-runs.

Runs a Table-3-style refinement loop — a per-item Map (summarize),
Enrich (keywords), Digest (takeaway) prefix feeding a short Filter
(negative sentiment) stage — for five iterations, where each iteration
boundary refines *only the filter prompt*.  The uncached arm re-executes
the whole pipeline every iteration; the cached arm attaches a
:class:`~repro.runtime.result_cache.ResultCache`, so after each
refinement only the filter stage (the refined prompt's transitive
dependents) re-runs while the upstream stages splice their memoized
``(C, M)`` deltas at ~zero simulated cost.

Both arms disable the model's prefix cache so the measurement isolates
the result-cache tier: every quantity (latency signals included) is then
a pure function of the prompt, which is also what makes the byte-identity
assertion below exact.  The tiers compose in normal use; see
``docs/caching.md``.

Asserts the final context and metadata of the cached arm are
byte-identical to the uncached arm, writes ``BENCH_result_cache.json``
at the repo root (or ``--output``), and exits non-zero when the
simulated-time speedup falls below ``--min-speedup`` (CI uses 2.0; the
acceptance bar for the workload is 3.0).

Usage::

    PYTHONPATH=src python benchmarks/bench_result_cache.py
    PYTHONPATH=src python benchmarks/bench_result_cache.py --tiny
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.core import GEN, REF, FunctionOperator, Pipeline  # noqa: E402
from repro.core.state import ExecutionState  # noqa: E402
from repro.data import make_tweet_corpus  # noqa: E402
from repro.experiments.common import (  # noqa: E402
    FILTER_NEG_INSTRUCTION,
    MAP_INSTRUCTION,
    SCAFFOLD,
)
from repro.llm.model import SimulatedLLM  # noqa: E402
from repro.runtime.executor import Executor  # noqa: E402
from repro.runtime.incremental import RefinementLoop  # noqa: E402
from repro.runtime.options import RuntimeOptions  # noqa: E402
from repro.runtime.result_cache import ResultCache  # noqa: E402

PROFILE = "qwen2.5-7b-instruct"
ITERATIONS = 5

ENRICH_INSTRUCTION = (
    "List the key topics and entities the tweet mentions, one per line."
)
DIGEST_INSTRUCTION = (
    "Condense the summary above into a single factual takeaway sentence."
)

#: The per-iteration focus hints the refiner appends to the filter
#: prompt — the Table-3 "manual refinement" move, repeated.
REFINEMENT_HINTS = (
    "Focus on school-related content such as classes and exams.",
    "Also count complaints about teachers and homework as school-related.",
    "Ignore sarcasm-free positive mentions of school events.",
    "Treat exam-stress venting as negative school content.",
)


def build_state(n_items: int, seed: int) -> tuple[ExecutionState, list]:
    """Fresh model + corpus + prompts (cold everything) for one arm."""
    llm = SimulatedLLM(PROFILE, enable_prefix_cache=False)
    corpus = make_tweet_corpus(n_items, seed=seed)
    llm.bind_tweets(corpus)
    state = ExecutionState(model=llm, clock=llm.clock)
    state.prompts.create(
        "map_p", SCAFFOLD + "\n" + MAP_INSTRUCTION + "\nTweet:\n{tweet}"
    )
    state.prompts.create(
        "enrich_p", SCAFFOLD + "\n" + ENRICH_INSTRUCTION + "\nTweet:\n{tweet}"
    )
    state.prompts.create(
        "digest_p",
        SCAFFOLD + "\nSummary:\n{summary}\n" + DIGEST_INSTRUCTION,
    )
    state.prompts.create(
        "filter_p", FILTER_NEG_INSTRUCTION + "\nTweet:\n{tweet}"
    )
    return state, list(corpus)


def build_pipeline(items: list) -> Pipeline:
    """One long pipeline: bind → Map → Enrich → Digest → Filter per item.

    The three upstream stages carry the heavy scaffold and full decode
    budgets; the refined filter stage is short with a tiny decode — the
    regime where invalidating only the filter suffix pays off.
    """
    operators = []
    for index, tweet in enumerate(items):
        text = tweet.text

        def bind(state: ExecutionState, _text: str = text) -> ExecutionState:
            state.context.put("tweet", _text, producer="bind")
            return state

        operators.append(FunctionOperator(bind, label=f"BIND[{index}]"))
        operators.append(GEN("summary", prompt="map_p"))
        operators.append(GEN("keywords", prompt="enrich_p"))
        operators.append(GEN("takeaway", prompt="digest_p"))
        operators.append(GEN("verdict", prompt="filter_p", max_tokens=8))
    return Pipeline(operators, name="bench_result_cache")


def build_refiners() -> list:
    return [
        REF("APPEND", hint, key="filter_p", function_name=f"f_focus_{index}")
        for index, hint in enumerate(REFINEMENT_HINTS[: ITERATIONS - 1])
    ]


def freeze_outputs(state: ExecutionState) -> str:
    """A byte-exact serialization of the final (C, M) pair."""
    context = {key: repr(state.context[key]) for key in state.context.keys()}
    metadata = {key: repr(state.metadata[key]) for key in state.metadata.keys()}
    return json.dumps({"context": context, "metadata": metadata}, sort_keys=True)


def run_arm(n_items: int, seed: int, *, cached: bool) -> dict:
    state, items = build_state(n_items, seed)
    cache = ResultCache(capacity=16384) if cached else None
    executor = Executor(
        options=RuntimeOptions(
            model=state.model, clock=state.clock, result_cache=cache
        )
    )
    loop = RefinementLoop(
        executor,
        build_pipeline(items),
        refiners=build_refiners(),
        max_iterations=ITERATIONS,
    )
    wall0 = time.perf_counter()
    report = loop.run(state=state)
    host_wall = time.perf_counter() - wall0
    assert report.final is not None
    return {
        "sim_elapsed_s": report.total_elapsed,
        "host_wall_s": round(host_wall, 4),
        "iterations": report.to_dict()["iterations"],
        "cache_hits": report.cache_hits,
        "cache_misses": report.cache_misses,
        "saved_seconds": report.total_saved_seconds,
        "outputs": freeze_outputs(report.final.state),
        "cache_snapshot": cache.snapshot() if cache is not None else None,
    }


def run_benchmark(n_items: int, seed: int) -> dict:
    uncached = run_arm(n_items, seed, cached=False)
    cached = run_arm(n_items, seed, cached=True)

    if cached["outputs"] != uncached["outputs"]:
        raise AssertionError(
            "cached refinement loop diverged from the uncached run — "
            "final context/metadata are not byte-identical"
        )

    speedup = (
        uncached["sim_elapsed_s"] / cached["sim_elapsed_s"]
        if cached["sim_elapsed_s"]
        else 0.0
    )
    for arm in (uncached, cached):
        arm.pop("outputs")
    return {
        "profile": PROFILE,
        "items": n_items,
        "seed": seed,
        "iterations": ITERATIONS,
        "uncached": uncached,
        "cached": cached,
        "speedup": round(speedup, 3),
        "outputs_identical": True,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--items", type=int, default=40, help="corpus size (default 40)"
    )
    parser.add_argument(
        "--tiny", action="store_true", help="CI smoke: 12 items"
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--min-speedup", type=float, default=2.0,
        help="fail when the simulated-time speedup is below this",
    )
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_result_cache.json"
    )
    args = parser.parse_args(argv)

    n_items = 12 if args.tiny else args.items
    result = run_benchmark(n_items, args.seed)
    result["min_speedup"] = args.min_speedup
    result["ok"] = result["speedup"] >= args.min_speedup

    args.output.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.output}")
    print(
        f"uncached: {result['uncached']['sim_elapsed_s']:.2f}s simulated "
        f"across {ITERATIONS} iterations"
    )
    print(
        f"cached:   {result['cached']['sim_elapsed_s']:.2f}s simulated, "
        f"{result['cached']['cache_hits']} hits / "
        f"{result['cached']['cache_misses']} misses, "
        f"{result['cached']['saved_seconds']:.2f}s saved"
    )
    print(f"speedup:  {result['speedup']:.2f}x (outputs byte-identical)")
    if not result["ok"]:
        print(
            f"FAIL: speedup {result['speedup']:.2f}x "
            f"< required {args.min_speedup}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
