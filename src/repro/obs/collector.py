"""The live collector: event stream in, metrics + spans out.

:class:`ObsCollector` is the glue of the observability layer.  It hangs
off :meth:`EventLog.subscribe` — so metrics accrue during execution with
zero changes to operator code — and optionally off the model layer's
generation listener and cache snapshots for the numbers that never reach
the event log (cache occupancy, eviction counts, model totals).

The same collector replays exported JSONL logs offline (``spear stats`` /
``spear trace``), so live serving and post-hoc analysis agree by
construction.

Metric catalog (see docs/observability.md for semantics):

=============================================  =========  ==============
name                                           type       labels
=============================================  =========  ==============
spear_events_total                             counter    kind
spear_operator_invocations_total               counter    operator
spear_operator_errors_total                    counter    operator
spear_operator_wall_seconds                    histogram  operator
spear_gen_calls_total                          counter    prompt
spear_gen_latency_seconds                      histogram  prompt
spear_prompt_tokens_total                      counter    prompt
spear_cached_tokens_total                      counter    prompt
spear_output_tokens_total                      counter    prompt
spear_plans_total                              counter    —
spear_plan_refiners_chosen_total               counter    —
spear_plan_refiners_skipped_total              counter    —
spear_shadow_phases_total                      counter    phase
spear_batch_runs_total                         counter    mode
spear_batch_items_total                        counter    mode
spear_batch_failures_total                     counter    mode
spear_batch_elapsed_seconds                    histogram  mode
spear_batch_throughput                         gauge      mode
spear_batch_workers                            gauge      mode
spear_gen_queue_depth                          gauge      model
spear_microbatch_flushes_total                 counter    model
spear_microbatch_size                          histogram  model
spear_microbatch_wall_seconds                  histogram  model
spear_sched_queue_depth                        gauge      model
spear_sched_steps_total                        counter    —
spear_sched_step_size                          histogram  —
spear_sched_step_tokens                        histogram  —
spear_sched_preemptions_total                  counter    —
spear_sched_forced_total                       counter    —
spear_sched_wait_seconds                       histogram  class
spear_prefix_dedup_tokens_total                counter    —
spear_prefix_step_dedup_tokens                 histogram  —
spear_prefix_groups_per_step                   histogram  —
spear_prefix_last_step_dedup_tokens            gauge      —
spear_prefix_cache_nodes                       gauge      model
spear_prefix_cache_leaves                      gauge      model
spear_prefix_cache_pinned_blocks               gauge      model
spear_lane_elapsed_seconds                     histogram  —
spear_model_gen_calls_total                    counter    model
spear_model_gen_latency_seconds                histogram  model
spear_model_prompt_tokens_total                counter    model
spear_model_cached_tokens_total                counter    model
spear_model_output_tokens_total                counter    model
spear_model_calls                              gauge      model
spear_model_latency_seconds_total              gauge      model
spear_kv_cache_blocks                          gauge      model
spear_kv_cache_hit_rate                        gauge      model
spear_kv_cache_evictions_total                 gauge      model
spear_prompt_cache_entries                     gauge      model
spear_prompt_cache_hit_rate                    gauge      model
spear_result_cache_hits_total                  counter    operator
spear_result_cache_saved_seconds_total         counter    operator
spear_result_cache_entries                     gauge      —
spear_result_cache_hit_rate                    gauge      —
spear_result_cache_invalidations_total         gauge      —
spear_result_cache_evictions_total             gauge      —
spear_faults_injected_total                    counter    kind
spear_model_failures_total                     counter    model
spear_retries_total                            counter    model
spear_retry_attempts                           histogram  model
spear_retry_backoff_seconds                    histogram  model
spear_breaker_state                            gauge      model
spear_breaker_transitions_total                counter    model
spear_degraded_runs_total                      counter    target
spear_serve_requests_total                     counter    tenant, status
spear_serve_latency_seconds                    histogram  tenant
spear_serve_queue_wait_seconds                 histogram  tenant
spear_serve_shed_total                         counter    tenant
spear_serve_queue_depth                        gauge      tenant
=============================================  =========  ==============

Operator labels are *kinds* (``GEN``, ``CHECK``, …) rather than full
labels like ``GEN["answer"]`` — full labels live on spans; metric
cardinality stays bounded.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any

from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry
from repro.obs.spans import Span, SpanBuilder
from repro.runtime.events import Event, EventKind, EventLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.llm.model import GenerationResult

__all__ = ["ObsCollector", "operator_kind"]

#: numeric encoding of breaker states for the ``spear_breaker_state`` gauge.
_BREAKER_STATE_VALUES = {"closed": 0.0, "half_open": 1.0, "open": 2.0}


def operator_kind(label: str) -> str:
    """Collapse an operator label to its kind: ``GEN["answer"]`` → ``GEN``."""
    bracket = label.find("[")
    return label[:bracket] if bracket > 0 else label


class ObsCollector:
    """Subscribes to event logs / models and accrues metrics and spans."""

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.spans = SpanBuilder()
        self._open_starts: dict[str, list[float]] = {}
        #: weak, so a freed log's recycled ``id()`` can never hide a new log.
        self._subscribed: weakref.WeakSet[EventLog] = weakref.WeakSet()
        self._attached_models: set[int] = set()
        self._attached_result_caches: set[int] = set()

    # -- wiring -------------------------------------------------------------

    def subscribe_to(self, log: EventLog) -> None:
        """Attach to ``log`` so every future event updates the metrics."""
        if log in self._subscribed:
            return
        self._subscribed.add(log)
        log.subscribe(self.on_event)

    def unsubscribe_from(self, log: EventLog) -> None:
        """Detach from ``log``."""
        if log.unsubscribe(self.on_event):
            self._subscribed.discard(log)

    def replay(self, log: EventLog) -> None:
        """Feed an already-recorded log through the collector (offline path)."""
        for event in log:
            self.on_event(event)

    def attach_model(self, model: Any, name: str | None = None) -> None:
        """Instrument a :class:`SimulatedLLM`-shaped model.

        Registers pull gauges over the model's aggregate accounting and
        its kv/prompt cache snapshots; if the model supports generation
        listeners, per-call latency/token histograms accrue there too
        (useful for direct ``model.generate`` callers that bypass GEN).

        Idempotent per model instance: attaching the same model again is
        a no-op, so two executors sharing one collector + model do not
        double-count ``spear_model_*`` metrics.
        """
        if id(model) in self._attached_models:
            return
        self._attached_models.add(id(model))
        label = name or getattr(
            getattr(model, "profile", None), "name", type(model).__name__
        )
        gauges = self.registry
        gauges.gauge(
            "spear_model_calls", "Generation calls served by the model.",
            model=label,
        ).set_function(lambda: float(model.calls))
        gauges.gauge(
            "spear_model_latency_seconds_total",
            "Total simulated generation latency.", model=label,
        ).set_function(lambda: float(model.total_latency))
        kv = getattr(model, "kv_cache", None)
        if kv is not None:
            gauges.gauge(
                "spear_kv_cache_blocks", "Blocks resident in the prefix cache.",
                model=label,
            ).set_function(lambda: float(len(kv)))
            gauges.gauge(
                "spear_kv_cache_hit_rate",
                "Token-level prefix-cache hit rate.", model=label,
            ).set_function(lambda: kv.stats.hit_rate)
            gauges.gauge(
                "spear_kv_cache_evictions_total",
                "Blocks evicted from the prefix cache.", model=label,
            ).set_function(lambda: float(kv.stats.evictions))
            if hasattr(kv, "pin"):
                # Radix-tree tier only: structural gauges over the tree.
                gauges.gauge(
                    "spear_prefix_cache_nodes",
                    "Token-block nodes resident in the radix prefix tree.",
                    model=label,
                ).set_function(lambda: float(kv.snapshot()["nodes"]))
                gauges.gauge(
                    "spear_prefix_cache_leaves",
                    "Leaf nodes of the radix prefix tree "
                    "(the eviction frontier).",
                    model=label,
                ).set_function(lambda: float(kv.snapshot()["leaves"]))
                gauges.gauge(
                    "spear_prefix_cache_pinned_blocks",
                    "Radix nodes pinned against eviction by the scheduler.",
                    model=label,
                ).set_function(lambda: float(kv.snapshot()["pinned_blocks"]))
        prompt_cache = getattr(model, "prompt_cache", None)
        if prompt_cache is not None:
            gauges.gauge(
                "spear_prompt_cache_entries",
                "Entries in the structured prompt cache.", model=label,
            ).set_function(lambda: float(len(prompt_cache)))
            gauges.gauge(
                "spear_prompt_cache_hit_rate",
                "Structured prompt cache hit rate.", model=label,
            ).set_function(lambda: prompt_cache.hit_rate)
        if hasattr(model, "add_listener"):
            model.add_listener(
                lambda result: self.on_generation(result, model=label)
            )

    def attach_result_cache(self, cache: Any) -> None:
        """Register pull gauges over an operator-level result cache.

        Complements the event-driven ``spear_result_cache_hits_total``
        counter (from CACHE_HIT events) with the cache's own aggregate
        accounting: occupancy, lifetime hit rate, invalidation and
        eviction counts.  Idempotent per cache instance.
        """
        if id(cache) in self._attached_result_caches:
            return
        self._attached_result_caches.add(id(cache))
        gauges = self.registry
        gauges.gauge(
            "spear_result_cache_entries",
            "Entries resident in the operator result cache.",
        ).set_function(lambda: cache.snapshot()["entries"])
        gauges.gauge(
            "spear_result_cache_hit_rate",
            "Lifetime hit rate of the operator result cache.",
        ).set_function(lambda: cache.snapshot()["hit_rate"])
        gauges.gauge(
            "spear_result_cache_invalidations_total",
            "Entries invalidated by prompt refinements.",
        ).set_function(lambda: cache.snapshot()["invalidations"])
        gauges.gauge(
            "spear_result_cache_evictions_total",
            "Entries evicted by the result cache's LRU policy.",
        ).set_function(lambda: cache.snapshot()["evictions"])

    # -- event handling -----------------------------------------------------

    def on_event(self, event: Event) -> None:
        """The :meth:`EventLog.subscribe` callback."""
        self.spans.add(event)
        self.registry.counter(
            "spear_events_total", "Events observed, by kind.",
            kind=event.kind.value,
        ).inc()
        kind = event.kind
        if kind is EventKind.OPERATOR_START:
            op = operator_kind(event.operator)
            self.registry.counter(
                "spear_operator_invocations_total",
                "Operator applications started.", operator=op,
            ).inc()
            self._open_starts.setdefault(event.operator, []).append(event.at)
        elif kind is EventKind.OPERATOR_END:
            starts = self._open_starts.get(event.operator)
            if starts:
                wall = max(event.at - starts.pop(), 0.0)
                self.registry.histogram(
                    "spear_operator_wall_seconds",
                    "Wall time per operator application (virtual clock).",
                    buckets=LATENCY_BUCKETS,
                    operator=operator_kind(event.operator),
                ).observe(wall)
        elif kind is EventKind.GENERATE:
            prompt = str(event.payload.get("prompt_key", "?"))
            self.registry.counter(
                "spear_gen_calls_total", "GEN operator calls.", prompt=prompt
            ).inc()
            self.registry.histogram(
                "spear_gen_latency_seconds",
                "Simulated latency per generation call.",
                buckets=LATENCY_BUCKETS,
                prompt=prompt,
            ).observe(float(event.payload.get("latency", 0.0) or 0.0))
            for signal, metric in (
                ("prompt_tokens", "spear_prompt_tokens_total"),
                ("cached_tokens", "spear_cached_tokens_total"),
                ("output_tokens", "spear_output_tokens_total"),
            ):
                value = event.payload.get(signal)
                if value is not None:
                    self.registry.counter(
                        metric, f"Sum of {signal} across GEN calls.",
                        prompt=prompt,
                    ).inc(float(value))
        elif kind is EventKind.CACHE_HIT:
            op = operator_kind(event.operator)
            self.registry.counter(
                "spear_result_cache_hits_total",
                "Operator applications served from the result cache.",
                operator=op,
            ).inc()
            self.registry.counter(
                "spear_result_cache_saved_seconds_total",
                "Simulated seconds saved by result-cache hits.",
                operator=op,
            ).inc(float(event.payload.get("saved_seconds", 0.0) or 0.0))
        elif kind is EventKind.ERROR:
            self.registry.counter(
                "spear_operator_errors_total", "Operator errors.",
                operator=operator_kind(event.operator),
            ).inc()
        elif kind is EventKind.FAULT:
            model = str(event.payload.get("model", "?"))
            self.registry.counter(
                "spear_model_failures_total",
                "Generation attempts that failed, by model.", model=model,
            ).inc()
            if event.payload.get("injected"):
                self.registry.counter(
                    "spear_faults_injected_total",
                    "Injected faults observed, by fault kind.",
                    kind=str(event.payload.get("kind", "?")),
                ).inc()
        elif kind is EventKind.RETRY:
            model = str(event.payload.get("model", "?"))
            self.registry.counter(
                "spear_retries_total",
                "Retries performed by resilience policies.", model=model,
            ).inc()
            self.registry.histogram(
                "spear_retry_attempts",
                "Retry ordinal per retried call (1 = first retry).",
                buckets=(1.0, 2.0, 3.0, 5.0, 8.0),
                model=model,
            ).observe(float(event.payload.get("attempt", 1) or 1))
            self.registry.histogram(
                "spear_retry_backoff_seconds",
                "Backoff delay charged before each retry.",
                buckets=LATENCY_BUCKETS,
                model=model,
            ).observe(float(event.payload.get("delay", 0.0) or 0.0))
        elif kind is EventKind.BREAKER:
            model = str(event.payload.get("model", "?"))
            state_name = str(event.payload.get("state", "?"))
            self.registry.gauge(
                "spear_breaker_state",
                "Circuit-breaker state (0 closed, 1 half-open, 2 open).",
                model=model,
            ).set(_BREAKER_STATE_VALUES.get(state_name, -1.0))
            if event.payload.get("action") in ("tripped", "closed"):
                self.registry.counter(
                    "spear_breaker_transitions_total",
                    "Circuit-breaker state transitions.", model=model,
                ).inc()
        elif kind is EventKind.FALLBACK:
            self.registry.counter(
                "spear_degraded_runs_total",
                "Generations served by a degraded fallback target.",
                target=str(event.payload.get("target", "?")),
            ).inc()
        elif kind is EventKind.PLAN:
            self.registry.counter(
                "spear_plans_total", "Refinement plans produced."
            ).inc()
            self.registry.counter(
                "spear_plan_refiners_chosen_total",
                "Refiners chosen across all plans.",
            ).inc(len(event.payload.get("chosen", ()) or ()))
            self.registry.counter(
                "spear_plan_refiners_skipped_total",
                "Refiners skipped across all plans.",
            ).inc(len(event.payload.get("skipped", ()) or ()))
        elif kind is EventKind.SHADOW:
            self.registry.counter(
                "spear_shadow_phases_total", "Shadow execution phase markers.",
                phase=str(event.payload.get("phase", "?")),
            ).inc()
        elif kind is EventKind.BATCH:
            mode = str(event.payload.get("mode", "?"))
            self.registry.counter(
                "spear_batch_runs_total", "Batch runs completed, by mode.",
                mode=mode,
            ).inc()
            self.registry.counter(
                "spear_batch_items_total", "Items processed by batch runs.",
                mode=mode,
            ).inc(float(event.payload.get("items", 0) or 0))
            self.registry.counter(
                "spear_batch_failures_total",
                "Item failures collected by batch runs.", mode=mode,
            ).inc(float(event.payload.get("failures", 0) or 0))
            self.registry.histogram(
                "spear_batch_elapsed_seconds",
                "Simulated elapsed time per batch run.",
                buckets=LATENCY_BUCKETS,
                mode=mode,
            ).observe(float(event.payload.get("elapsed", 0.0) or 0.0))
            self.registry.gauge(
                "spear_batch_throughput",
                "Items per simulated second of the last batch run.",
                mode=mode,
            ).set(float(event.payload.get("throughput", 0.0) or 0.0))
            self.registry.gauge(
                "spear_batch_workers",
                "Lanes used by the last batch run.", mode=mode,
            ).set(float(event.payload.get("workers", 1) or 1))
        elif kind is EventKind.SCHED:
            # One event per continuous-batching engine step (folded into
            # the base log after the run); this is the sole source of the
            # spear_sched_* counters/histograms — the engine itself only
            # sets gauges, so sharing one registry never double-counts.
            payload = event.payload
            self.registry.counter(
                "spear_sched_steps_total",
                "Continuous-batching engine steps executed.",
            ).inc()
            self.registry.histogram(
                "spear_sched_step_size",
                "Generation calls admitted per engine step.",
                buckets=(1, 2, 4, 8, 16, 32, 64, 128),
            ).observe(float(payload.get("size", 0) or 0))
            self.registry.histogram(
                "spear_sched_step_tokens",
                "Prompt tokens admitted per engine step.",
                buckets=(64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0),
            ).observe(float(payload.get("tokens", 0) or 0))
            self.registry.counter(
                "spear_sched_preemptions_total",
                "Admissions that jumped ahead of an older, "
                "lower-priority queued call.",
            ).inc(float(payload.get("preemptions", 0) or 0))
            self.registry.counter(
                "spear_sched_forced_total",
                "Admissions forced by the timeout watermark.",
            ).inc(float(payload.get("forced", 0) or 0))
            dedup = float(payload.get("dedup_tokens", 0) or 0)
            self.registry.counter(
                "spear_prefix_dedup_tokens_total",
                "Trunk tokens prefilled once per step instead of once "
                "per request (intra-step prefix dedup).",
            ).inc(dedup)
            self.registry.histogram(
                "spear_prefix_step_dedup_tokens",
                "Deduplicated trunk tokens per engine step.",
                buckets=(0.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0),
            ).observe(dedup)
            self.registry.gauge(
                "spear_prefix_last_step_dedup_tokens",
                "Deduplicated trunk tokens of the most recent engine step.",
            ).set(dedup)
            if payload.get("prefix_groups") is not None:
                self.registry.histogram(
                    "spear_prefix_groups_per_step",
                    "Distinct shared-trunk groups per engine step.",
                    buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0),
                ).observe(float(payload.get("prefix_groups", 0) or 0))
            waits = payload.get("waits", ()) or ()
            classes = payload.get("classes", ()) or ()
            for wait, priority in zip(waits, classes):
                self.registry.histogram(
                    "spear_sched_wait_seconds",
                    "Queue wait per admitted call, by priority class.",
                    buckets=LATENCY_BUCKETS,
                    **{"class": str(priority)},
                ).observe(float(wait))
        elif kind is EventKind.SERVE:
            # One event per serving-layer request outcome, recorded on
            # the server's own event log (never on tenant session logs,
            # which must stay byte-identical to standalone runs).
            payload = event.payload
            tenant = str(payload.get("tenant", "?"))
            status = str(payload.get("status", "?"))
            self.registry.counter(
                "spear_serve_requests_total",
                "Serving requests completed, by tenant and outcome.",
                tenant=tenant, status=status,
            ).inc()
            if status == "shed":
                self.registry.counter(
                    "spear_serve_shed_total",
                    "Requests shed by admission control, by tenant.",
                    tenant=tenant,
                ).inc()
            else:
                self.registry.histogram(
                    "spear_serve_latency_seconds",
                    "Simulated execution time per served request.",
                    buckets=LATENCY_BUCKETS,
                    tenant=tenant,
                ).observe(float(payload.get("elapsed", 0.0) or 0.0))
                self.registry.histogram(
                    "spear_serve_queue_wait_seconds",
                    "Wall-clock admission-to-start wait per request.",
                    buckets=LATENCY_BUCKETS,
                    tenant=tenant,
                ).observe(float(payload.get("queue_wait", 0.0) or 0.0))
            if payload.get("queue_depth") is not None:
                self.registry.gauge(
                    "spear_serve_queue_depth",
                    "Tenant queue depth after this request's admission "
                    "decision.",
                    tenant=tenant,
                ).set(float(payload.get("queue_depth", 0) or 0))

    def on_generation(self, result: "GenerationResult", model: str = "?") -> None:
        """Model-layer listener: every ``generate`` call, however reached.

        These land in a separate ``spear_model_*`` metric family from the
        event-derived ``spear_gen_*`` metrics — a GEN operator call shows
        up in both layers (that is the point: the two layers cross-check
        each other), and callers that bypass the operator layer entirely
        (benchmarks, batch harnesses) still show up here.
        """
        self.registry.counter(
            "spear_model_gen_calls_total",
            "Generation calls observed at the model layer.", model=model,
        ).inc()
        self.registry.histogram(
            "spear_model_gen_latency_seconds",
            "Simulated latency per model-layer generation call.",
            buckets=LATENCY_BUCKETS,
            model=model,
        ).observe(result.latency.total)
        for value, metric in (
            (result.prompt_tokens, "spear_model_prompt_tokens_total"),
            (result.cached_tokens, "spear_model_cached_tokens_total"),
            (result.output_tokens, "spear_model_output_tokens_total"),
        ):
            self.registry.counter(
                metric, "Model-layer token totals.", model=model
            ).inc(float(value))

    # -- read side ----------------------------------------------------------

    def span_roots(self) -> list[Span]:
        """The span forest seen so far (open spans left untouched)."""
        return self.spans.roots
