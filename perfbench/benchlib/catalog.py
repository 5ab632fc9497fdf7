"""The clock of every metric the benchmark prints.

``BENCHMARK.json`` at the repository root lists the metrics with their
units, directions and regression bounds; :func:`metrics` reads names and
units from it.  What each metric measures is described in
``perfbench/NOTES.md``.  Clocks:

- ``host``: time of the Python process;
- ``simulated``: the virtual clock of the simulated model;
- ``none``: counts, ratios and memory, which belong to no clock.
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

CLOCKS: dict[str, str] = {
    # end-to-end (--trace 0)
    "setup_s": "host",
    "sim_s": "simulated",
    "accuracy": "none",
    "peak_rss_mb": "none",
    # per layer (--trace 1); the first three are the untraced work's
    # throughput and latency, which carry no bound (NOTES.md).
    "items_per_s": "host",
    "latency_p50_ms": "host",
    "latency_p99_ms": "host",
    "llm.tokenize_ms": "host",
    "llm.features_ms": "host",
    "llm.task_ms": "host",
    "llm.kv_ms": "host",
    "llm.gen_calls": "none",
    "llm.prompt_tokens": "none",
    "llm.cached_tokens": "none",
    "llm.kv_hit_ratio": "none",
    "scheduler.steps": "none",
    "scheduler.mean_step_size": "none",
    "scheduler.sim_wait_p50_s": "simulated",
    "scheduler.sim_wait_p99_s": "simulated",
    "scheduler.blocked_ms": "host",
    "parallel.host_vs_sequential": "host",
    "core.render_ms": "host",
    "core.refine_ms": "host",
    "result_cache.lookup_ms": "host",
    "result_cache.hits": "none",
    "result_cache.misses": "none",
    "result_cache.hit_ratio": "none",
    "result_cache.invalidations": "none",
    "analysis.check_ms": "host",
    "analysis.checks": "none",
    "analysis.lookups": "none",
    "analysis.cache_hit_ratio": "none",
    "dl.compile_ms": "host",
    "events.recorded": "none",
    "events.record_ms": "host",
    "events.retained_hot": "none",
    "executor.run_ms": "host",
    "obs.collector_ms": "host",
    "obs.series_ms": "host",
    "obs.ledger_ms": "host",
    "serve.submit_us": "host",
    "serve.queue_wait_p50_ms": "host",
    "serve.queue_wait_p99_ms": "host",
    "serve.execute_p50_ms": "host",
    "serve.execute_growth": "host",
    "serve.shed": "none",
    "serve.errors": "none",
    "serve.generator_late_ms": "host",
    "trace.overhead_ratio": "host",
    "trace.spans": "none",
}


def metrics(trace: bool) -> dict[str, str]:
    """Name -> unit of what a run prints: ``per_layer`` if traced."""
    spec = json.loads(SPEC.read_text())
    return {
        entry["name"]: entry["unit"]
        for entry in spec["per_layer" if trace else "end_to_end"]
    }
