"""Which public calls the traced run wraps, and how spans become metrics.

Each layer is named after the ``repro`` module it lives in.  Only
public functions and methods are wrapped; work a layer does inside a
private helper is charged to the nearest wrapped caller's self time.
"""

from __future__ import annotations

from typing import Any

#: metric -> span names whose self time it sums (milliseconds).
SELF_MS: dict[str, tuple[str, ...]] = {
    "llm.tokenize_ms": ("Tokenizer.encode", "Tokenizer.count"),
    "llm.features_ms": ("extract_features",),
    "llm.task_ms": ("TaskEngine.run",),
    "llm.kv_ms": (
        "RadixPrefixCache.match_prefix",
        "RadixPrefixCache.insert",
        "RadixPrefixCache.lookup_and_insert",
        "RadixPrefixCache.pin",
        "RadixPrefixCache.unpin",
    ),
    "scheduler.blocked_ms": ("GenScheduler.submit",),
    "core.render_ms": ("PromptEntry.render",),
    "core.refine_ms": ("REF.apply",),
    "result_cache.lookup_ms": ("ResultCache.lookup",),
    "analysis.check_ms": ("check_pipeline",),
    "dl.compile_ms": ("compile_source",),
    "events.record_ms": ("EventLog.record", "EventLog.emit"),
    "executor.run_ms": ("Executor.run",),
    "obs.collector_ms": ("ObsCollector.on_event", "ObsCollector.on_generation"),
    "obs.series_ms": ("SeriesRecorder.on_event", "SeriesRecorder.sample"),
    "obs.ledger_ms": ("RunLedger.open", "RunLedger.finalize"),
}


def _request_id(_self: Any, request: Any, *_args: Any, **_kwargs: Any) -> Any:
    return request.request_id


def targets() -> list[tuple]:
    """``(owner, attribute, span name[, unit_of])`` for every wrapped call."""
    import repro.analysis.cache as analysis_cache
    import repro.dl as dl
    import repro.llm.model as llm_model
    import repro.llm.tasks as llm_tasks
    from repro.core.entry import PromptEntry
    from repro.core.operators import REF
    from repro.llm.radix_cache import RadixPrefixCache
    from repro.llm.tasks import TaskEngine
    from repro.llm.tokenizer import Tokenizer
    from repro.obs.collector import ObsCollector
    from repro.obs.ledger import RunLedger
    from repro.obs.timeseries import SeriesRecorder
    from repro.runtime.events import EventLog
    from repro.runtime.executor import Executor
    from repro.runtime.result_cache import ResultCache
    from repro.runtime.scheduler import GenScheduler
    from repro.serve.server import SpearServer
    from repro.serve.session import TenantSession

    return [
        (Tokenizer, "encode", "Tokenizer.encode"),
        (Tokenizer, "count", "Tokenizer.count"),
        (llm_model, "extract_features", "extract_features"),
        (llm_tasks, "extract_features", "extract_features"),
        (TaskEngine, "run", "TaskEngine.run"),
        *(
            (RadixPrefixCache, method, f"RadixPrefixCache.{method}")
            for method in (
                "match_prefix", "insert", "lookup_and_insert", "pin", "unpin",
            )
        ),
        (GenScheduler, "submit", "GenScheduler.submit"),
        (PromptEntry, "render", "PromptEntry.render"),
        (REF, "apply", "REF.apply"),
        (ResultCache, "lookup", "ResultCache.lookup"),
        (analysis_cache, "check_pipeline", "check_pipeline"),
        (dl, "compile_source", "compile_source"),
        (EventLog, "record", "EventLog.record"),
        (EventLog, "emit", "EventLog.emit"),
        (Executor, "run", "Executor.run"),
        (ObsCollector, "on_event", "ObsCollector.on_event"),
        (ObsCollector, "on_generation", "ObsCollector.on_generation"),
        (SeriesRecorder, "on_event", "SeriesRecorder.on_event"),
        (SeriesRecorder, "sample", "SeriesRecorder.sample"),
        (RunLedger, "open", "RunLedger.open"),
        (RunLedger, "finalize", "RunLedger.finalize"),
        (SpearServer, "submit", "SpearServer.submit", _request_id),
        (TenantSession, "execute", "TenantSession.execute", _request_id),
    ]


def span_metrics(totals: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self-time metrics plus the span-count ones, from tracer totals."""
    def self_ms(names: tuple[str, ...]) -> float:
        return sum(totals.get(name, {}).get("self_ms", 0.0) for name in names)

    metrics = {name: self_ms(names) for name, names in SELF_MS.items()}
    metrics["events.recorded"] = totals.get("EventLog.record", {}).get("calls", 0)
    metrics["analysis.checks"] = totals.get("check_pipeline", {}).get("calls", 0)
    submit = totals.get("SpearServer.submit", {"calls": 0, "ms": 0.0})
    metrics["serve.submit_us"] = (
        submit["ms"] * 1e3 / submit["calls"] if submit["calls"] else 0.0
    )
    metrics["trace.spans"] = sum(row["calls"] for row in totals.values())
    return metrics
