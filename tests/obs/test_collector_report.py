"""Tests for the live collector, the run report, and the offline path."""

from repro.core import CHECK, Condition, GEN, REF, Pipeline, RefAction
from repro.obs import ObsCollector, build_report, build_run_report, operator_kind
from repro.obs.report import Pricing
from repro.runtime.events import EventKind, EventLog
from repro.runtime.executor import Executor
from repro.runtime.options import RuntimeOptions
from repro.runtime.tracing import export_events, import_events


def _run_pipeline(state, tweet_corpus, collector=None):
    if collector is not None:
        collector.subscribe_to(state.events)
        collector.attach_model(state.model)
    state.prompts.create(
        "qa", f"Summarize the tweet.\nTweet:\n{tweet_corpus[0].text}"
    )
    pipeline = (
        GEN("answer", prompt="qa")
        >> CHECK(
            Condition.metadata_below("confidence", 2.0),
            REF(RefAction.APPEND, "Be brief.", key="qa"),
        )
        >> GEN("answer", prompt="qa")
    )
    return pipeline.apply(state)


class TestOperatorKind:
    def test_strips_bracket_suffix(self):
        assert operator_kind('GEN["answer"]') == "GEN"
        assert operator_kind("Pipeline[audit]") == "Pipeline"
        assert operator_kind("CHECK") == "CHECK"


class TestLiveCollection:
    def test_metrics_accrue_during_execution(self, state, tweet_corpus):
        collector = ObsCollector()
        _run_pipeline(state, tweet_corpus, collector)
        registry = collector.registry

        assert registry.sum_counter("spear_gen_calls_total") == 2
        assert registry.get("spear_operator_invocations_total", operator="GEN").value == 2
        assert registry.get("spear_operator_invocations_total", operator="CHECK").value == 1
        assert registry.sum_counter("spear_prompt_tokens_total") > 0
        # Event counter covers lifecycle + semantic events.
        assert registry.sum_counter("spear_events_total") == len(state.events)

    def test_model_layer_cross_checks_event_layer(self, state, tweet_corpus):
        collector = ObsCollector()
        _run_pipeline(state, tweet_corpus, collector)
        registry = collector.registry
        # Both GEN calls went through the model, so the two independent
        # layers (event-derived vs. model listener) must agree.
        assert registry.sum_counter("spear_model_gen_calls_total") == 2
        assert registry.sum_counter(
            "spear_model_prompt_tokens_total"
        ) == registry.sum_counter("spear_prompt_tokens_total")

    def test_cache_gauges_pull_from_model(self, state, tweet_corpus):
        collector = ObsCollector()
        _run_pipeline(state, tweet_corpus, collector)
        model_label = state.model.profile.name
        gauge = collector.registry.get("spear_kv_cache_blocks", model=model_label)
        assert gauge is not None
        assert gauge.value == float(len(state.model.kv_cache))

    def test_subscribe_is_idempotent(self, state, tweet_corpus):
        collector = ObsCollector()
        collector.subscribe_to(state.events)
        collector.subscribe_to(state.events)  # second call is a no-op
        state.events.emit(EventKind.CHECK, "A")
        assert collector.registry.sum_counter("spear_events_total") == 1

    def test_attach_model_is_idempotent(self, state, tweet_corpus):
        collector = ObsCollector()
        collector.attach_model(state.model)
        collector.attach_model(state.model)  # second call is a no-op
        _run_pipeline(state, tweet_corpus)
        # One listener registered → model-layer calls counted once.
        assert collector.registry.sum_counter("spear_model_gen_calls_total") == 2


    def test_every_fresh_state_is_counted(self, llm):
        # Each freed state's log frees its id(); a later log can reuse it
        # and must still be subscribed, or its events go uncounted.
        collector = ObsCollector()
        executor = Executor(
            options=RuntimeOptions(model=llm, clock=llm.clock, collector=collector)
        )
        pipeline = Pipeline([GEN("answer", prompt="qa")])
        for _ in range(200):
            state = executor.new_state()
            state.prompts.create("qa", "Say hello.")
            executor.run(pipeline, state=state)
            del state
        invocations = collector.registry.get(
            "spear_operator_invocations_total", operator="GEN"
        )
        assert invocations.value == 200


class TestRunReport:
    def test_report_sections_populated(self, state, tweet_corpus):
        collector = ObsCollector()
        _run_pipeline(state, tweet_corpus, collector)
        report = build_report(collector, top_k=3)

        assert report.operators["GEN"]["invocations"] == 2
        assert report.operators["GEN"]["wall_seconds"]["count"] == 2
        assert report.generation["qa"]["calls"] == 2
        assert 0.0 < report.generation["qa"]["cache_hit_ratio"] <= 1.0
        assert report.generation["qa"]["cost_usd"] > 0
        assert report.totals["gen_calls"] == 2
        assert report.totals["model_gen_calls"] == 2
        assert len(report.slowest_spans) <= 3
        assert report.slowest_spans[0]["wall"] >= report.slowest_spans[-1]["wall"]
        model_label = state.model.profile.name
        assert "kv_cache_hit_rate" in report.cache[model_label]

    def test_mid_run_report_leaves_live_spans_intact(self):
        # Generating a report between events (live scrape) must not close
        # the open span stack: later ENDs still pair up and children stay
        # children.
        collector = ObsCollector()
        log = EventLog()
        collector.subscribe_to(log)
        log.emit(EventKind.OPERATOR_START, "OUTER", at=0.0)
        log.emit(EventKind.OPERATOR_START, "INNER", at=1.0)

        mid = build_report(collector)
        # The snapshot sees the open spans, closed and marked incomplete.
        assert any(not span["complete"] for span in mid.slowest_spans)

        log.emit(EventKind.OPERATOR_END, "INNER", at=2.0)
        log.emit(EventKind.OPERATOR_END, "OUTER", at=3.0)
        final = build_report(collector)
        roots = collector.span_roots()
        assert len(roots) == 1
        outer = roots[0]
        assert outer.complete and outer.end == 3.0
        assert len(outer.children) == 1
        assert outer.children[0].complete and outer.children[0].end == 2.0
        assert all(span["complete"] for span in final.slowest_spans)

    def test_pricing_flows_into_costs(self, state, tweet_corpus):
        collector = ObsCollector()
        _run_pipeline(state, tweet_corpus, collector)
        free = build_report(
            collector, pricing=Pricing(0.0, 0.0, 0.0)
        )
        assert free.totals["cost_usd"] == 0.0

    def test_pricing_cost_math(self):
        pricing = Pricing(
            prompt_usd_per_1m=1.0, cached_usd_per_1m=0.1, output_usd_per_1m=2.0
        )
        # 1M uncached prompt tokens -> $1; cached subset billed at discount.
        assert pricing.cost(1_000_000, 0, 0) == 1.0
        assert pricing.cost(1_000_000, 1_000_000, 0) == 0.1
        assert pricing.cost(0, 0, 500_000) == 1.0


class TestResultCacheMetrics:
    """CACHE_HIT events and attached caches feed spear_result_cache_*."""

    @staticmethod
    def _cached_run(collector):
        from repro.core import Pipeline
        from repro.data import make_tweet_corpus
        from repro.llm.model import SimulatedLLM
        from repro.runtime.executor import Executor
        from repro.runtime.options import RuntimeOptions
        from repro.runtime.result_cache import ResultCache

        llm = SimulatedLLM("qwen2.5-7b-instruct", enable_prefix_cache=False)
        corpus = make_tweet_corpus(2, seed=7)
        llm.bind_tweets(corpus)
        cache = ResultCache()
        executor = Executor(
            options=RuntimeOptions(
                model=llm,
                clock=llm.clock,
                collector=collector,
                result_cache=cache,
            )
        )
        state = executor.new_state()
        state.prompts.create(
            "qa", f"Summarize the tweet.\nTweet:\n{corpus[0].text}"
        )
        pipeline = Pipeline([GEN("answer", prompt="qa")])
        executor.run(pipeline, state=state)
        executor.run(pipeline, state=state)  # the hit
        return cache, state

    def test_hit_counters_accrue_from_events(self):
        collector = ObsCollector()
        cache, _state = self._cached_run(collector)
        registry = collector.registry
        hit_counter = registry.get(
            "spear_result_cache_hits_total", operator="GEN"
        )
        assert hit_counter is not None and hit_counter.value == 1
        assert (
            registry.sum_counter("spear_result_cache_saved_seconds_total") > 0
        )

    def test_pull_gauges_read_cache_snapshot(self):
        collector = ObsCollector()
        cache, state = self._cached_run(collector)
        registry = collector.registry
        assert registry.get("spear_result_cache_entries").value == float(
            len(cache)
        )
        assert registry.get(
            "spear_result_cache_hit_rate"
        ).value == cache.hit_rate
        REF(RefAction.APPEND, "Be brief.", key="qa").apply(state)
        assert registry.get(
            "spear_result_cache_invalidations_total"
        ).value == 1.0

    def test_report_result_cache_section(self):
        collector = ObsCollector()
        cache, _state = self._cached_run(collector)
        report = build_report(collector)
        section = report.result_cache
        assert section["by_operator"]["GEN"]["hits"] == 1
        assert section["by_operator"]["GEN"]["saved_seconds"] > 0
        assert section["entries"] == float(len(cache))
        assert section["hit_rate"] == cache.hit_rate
        assert report.totals["result_cache_hits"] == 1
        assert report.totals["result_cache_saved_seconds"] > 0
        assert report.to_dict()["result_cache"] == section

    def test_attach_result_cache_idempotent(self):
        from repro.runtime.result_cache import ResultCache

        collector = ObsCollector()
        cache = ResultCache()
        collector.attach_result_cache(cache)
        collector.attach_result_cache(cache)  # no duplicate-gauge error
        assert collector.registry.get(
            "spear_result_cache_entries"
        ).value == 0.0

    def test_reports_without_cache_have_empty_section(self, state, tweet_corpus):
        collector = ObsCollector()
        _run_pipeline(state, tweet_corpus, collector)
        report = build_report(collector)
        assert report.result_cache == {}
        assert report.totals["result_cache_hits"] == 0


class TestOfflineReplay:
    def test_exported_trace_reproduces_live_report(
        self, state, tweet_corpus, tmp_path
    ):
        live = ObsCollector()
        state = _run_pipeline(state, tweet_corpus, live)
        live_report = build_report(live)

        path = export_events(state.events, tmp_path / "run.jsonl")
        offline_report = build_run_report(import_events(path))

        # Event-derived sections agree exactly; model/cache sections need
        # the live model and are absent offline.
        assert offline_report.operators == live_report.operators
        assert offline_report.generation == live_report.generation
        assert offline_report.slowest_spans == live_report.slowest_spans
        assert offline_report.totals["gen_calls"] == live_report.totals["gen_calls"]
        assert (
            offline_report.totals["prompt_tokens"]
            == live_report.totals["prompt_tokens"]
        )
        assert offline_report.model == {}

    def test_replay_of_empty_log_yields_empty_report(self):
        report = build_run_report(EventLog())
        assert report.operators == {}
        assert report.generation == {}
        assert report.totals["events"] == 0
