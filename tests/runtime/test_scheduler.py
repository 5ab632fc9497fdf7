"""Tests for the continuous-batching GEN scheduler.

Covers the engine in isolation (policy, watermark, token budget, lane
lifecycle), the runner integration (byte-identity to sequential,
deterministic step composition, priority/deadline policy), the hypothesis
property suite over randomized pipelines, the mixed-priority stress run,
and the starvation regression for lanes that die before their first
submit.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GEN, Pipeline
from repro.core.state import ExecutionState
from repro.data import make_tweet_corpus
from repro.errors import ModelError
from repro.llm.model import SimulatedLLM
from repro.obs import ObsCollector
from repro.runtime.batch import BatchRunner
from repro.runtime.clock import VirtualClock
from repro.runtime.events import EventKind
from repro.runtime.options import RuntimeOptions
from repro.runtime.parallel import ParallelBatchRunner
from repro.runtime.scheduler import (
    GenScheduler,
    PriorityClass,
    SchedulerConfig,
    resolve_priority_class,
    resolve_scheduler_config,
)

FILTER_PROMPT = (
    "Select the tweet only if its sentiment is negative. "
    "Respond with yes or no.\nTweet:\n{tweet}"
)
MAP_PROMPT = (
    "Summarize and clean up the tweet in at most 30 words.\nTweet:\n{tweet}"
)


def _bind_tweet(state, tweet):
    state.context.put("tweet", tweet.text, producer="bind")


def _build_state(n_items=20, seed=7, prefix_cache=True):
    llm = SimulatedLLM("qwen2.5-7b-instruct", enable_prefix_cache=prefix_cache)
    corpus = make_tweet_corpus(n_items, seed=seed)
    llm.bind_tweets(corpus)
    state = ExecutionState(model=llm, clock=llm.clock)
    state.prompts.create("filter", FILTER_PROMPT)
    state.prompts.create("map", MAP_PROMPT)
    return state, list(corpus)


def _pipeline():
    return Pipeline(
        [GEN("summary", prompt="map"), GEN("verdict", prompt="filter")]
    )


def _texts(batch):
    return [
        (r.context.get("summary"), r.context.get("verdict"))
        for r in batch.items
    ]


def _step_trace(engine):
    """The composition-relevant view of a step trace, for equality checks."""
    return [
        (
            record.index,
            record.forced,
            record.preemptions,
            tuple(
                (m.lane_id, m.priority, m.arrival, m.start, m.completion)
                for m in record.members
            ),
        )
        for record in engine.steps
    ]


class TestConfig:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SchedulerConfig(max_batch=0)
        with pytest.raises(ValueError):
            SchedulerConfig(max_batch_tokens=0)
        with pytest.raises(ValueError):
            SchedulerConfig(watermark_s=-1.0)

    def test_resolve_scheduler_config(self):
        assert resolve_scheduler_config(False) is None
        assert resolve_scheduler_config(None) == SchedulerConfig()
        assert resolve_scheduler_config(True) == SchedulerConfig()
        config = SchedulerConfig(max_batch_tokens=512)
        assert resolve_scheduler_config(config) is config
        with pytest.raises(TypeError):
            resolve_scheduler_config(42)

    def test_resolve_priority_class(self):
        assert resolve_priority_class(None) is PriorityClass.NORMAL
        assert resolve_priority_class("bulk") is PriorityClass.BULK
        assert resolve_priority_class("INTERACTIVE") is PriorityClass.INTERACTIVE
        assert (
            resolve_priority_class(PriorityClass.BULK) is PriorityClass.BULK
        )
        with pytest.raises(ValueError):
            resolve_priority_class("urgent")
        assert PriorityClass.INTERACTIVE.rank < PriorityClass.NORMAL.rank
        assert PriorityClass.NORMAL.rank < PriorityClass.BULK.rank


class TestEngineUnit:
    def _model(self, n=8, seed=7):
        llm = SimulatedLLM("qwen2.5-7b-instruct")
        llm.bind_tweets(make_tweet_corpus(n, seed=seed))
        return llm

    def test_lane_lifecycle_errors(self):
        engine = GenScheduler(self._model())
        clock = VirtualClock()
        engine.open_lane(0, clock)
        with pytest.raises(ValueError):
            engine.open_lane(0, clock)
        with pytest.raises(RuntimeError):
            engine.configure_lane(1, priority="bulk")
        with pytest.raises(RuntimeError):
            engine.submit(1, "hello")
        engine.close_lane(0)
        with pytest.raises(RuntimeError):
            engine.submit(0, "hello")

    def test_prepare_error_delivered_to_caller_only(self):
        """A request that fails before queueing raises in its caller;
        nothing stays pending and the lane keeps working."""
        engine = GenScheduler(self._model())
        proxy = engine.open_lane(0, VirtualClock())
        with pytest.raises(ModelError):
            proxy.generate("")
        assert engine.snapshot()["pending"] == 0
        assert proxy.generate("Summarize the tweet.\nTweet:\nrain again").text
        engine.close_lane(0)
        assert engine.snapshot()["pending"] == 0

    def test_lane_model_delegates_attributes(self):
        """Everything but generate on a lane proxy is the shared model's."""
        model = self._model()
        engine = GenScheduler(model)
        proxy = engine.open_lane(0, VirtualClock())
        assert proxy.profile is model.profile
        assert proxy.kv_cache is model.kv_cache
        assert proxy.tokenizer is model.tokenizer
        engine.close_lane(0)

    def test_max_batch_caps_step_size(self):
        """Four concurrent lanes under max_batch=2 all complete, and no
        engine step admits more than two requests."""
        engine = GenScheduler(
            self._model(), config=SchedulerConfig(max_batch=2)
        )
        lanes = [engine.open_lane(i, VirtualClock()) for i in range(4)]
        results = [None] * 4

        def worker(i):
            try:
                results[i] = lanes[i].generate(
                    "Summarize the tweet.\nTweet:\nso tired of delays"
                )
            finally:
                engine.close_lane(i)

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert all(result is not None for result in results)
        stats = engine.snapshot()
        assert stats["largest_batch"] <= 2
        assert stats["batched_calls"] == 4
        assert all(len(record.members) <= 2 for record in engine.steps)

    def test_single_lane_matches_direct_model(self):
        """One lane with a free pipe degenerates to the direct call path:
        same text, same latency, same clock advance."""
        direct = self._model()
        prompt = "Summarize the tweet.\nTweet:\nthe trains are late again"
        direct_result = direct.generate(prompt)

        scheduled = self._model()
        engine = GenScheduler(scheduled)
        proxy = engine.open_lane(0, scheduled.clock)
        sched_result = proxy.generate(prompt)
        engine.close_lane(0)

        assert sched_result.text == direct_result.text
        assert sched_result.prompt_tokens == direct_result.prompt_tokens
        assert sched_result.latency.total == pytest.approx(
            direct_result.latency.total
        )
        assert scheduled.clock.now == pytest.approx(direct.clock.now)

    def test_closing_idle_lane_releases_pending_peer(self):
        """Starvation regression: a lane that dies between open_lane and
        its first submit must not leave peers waiting forever."""
        engine = GenScheduler(self._model())
        proxy = engine.open_lane(0, VirtualClock())
        engine.open_lane(1, VirtualClock())

        outcome = {}

        def worker():
            outcome["result"] = proxy.generate(
                "Summarize the tweet.\nTweet:\nso tired of delays"
            )

        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        # Lane 1 "raises before its first submit": all it can do is
        # close.  That must release lane 0 as a step of one.
        engine.close_lane(1)
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert outcome["result"].text

    def test_token_budget_splits_steps(self):
        state, items = _build_state(n_items=12)
        runner = ParallelBatchRunner(
            state,
            bind=_bind_tweet,
            workers=12,
            options=RuntimeOptions(
                scheduler=SchedulerConfig(max_batch_tokens=120)
            ),
        )
        runner.run(Pipeline([GEN("summary", prompt="map")]), items=items)
        engine = runner.last_batcher
        assert engine.flushes > 1  # the budget split the quiescence set
        for record in engine.steps:
            # Within budget, except a protected singleton admission.
            assert record.tokens <= 120 or record.size == 1

    def test_watermark_zero_forces_arrival_order(self):
        """watermark_s=0 forces every pending request: admission becomes
        pure arrival order regardless of priority class."""
        state, items = _build_state(n_items=8)
        runner = ParallelBatchRunner(
            state,
            bind=_bind_tweet,
            workers=4,
            options=RuntimeOptions(
                scheduler=SchedulerConfig(watermark_s=0.0),
                priority=lambda item: "interactive"
                if item.uid.endswith("1")
                else "bulk",
            ),
        )
        runner.run(_pipeline(), items=items)
        engine = runner.last_batcher
        assert engine.forced == engine.batched_calls
        for record in engine.steps:
            arrivals = [m.arrival for m in record.members]
            assert arrivals == sorted(arrivals)

    def test_snapshot_keys_superset_of_barrier(self):
        state, items = _build_state(n_items=6)
        runner = ParallelBatchRunner(state, bind=_bind_tweet, workers=3)
        runner.run(_pipeline(), items=items)
        snapshot = runner.last_batcher.snapshot()
        for key in (
            "flushes",
            "batched_calls",
            "largest_batch",
            "mean_batch_size",
            "total_batch_wall",
            "open_lanes",
            "pending",
            "steps",
            "preemptions",
            "forced",
            "mean_wait",
        ):
            assert key in snapshot, key
        assert snapshot["open_lanes"] == 0
        assert snapshot["pending"] == 0


class TestRunnerIntegration:
    def test_outputs_identical_to_sequential(self):
        state_seq, items = _build_state()
        sequential = BatchRunner(state_seq, bind=_bind_tweet).run(
            _pipeline(), items=items
        )
        for workers in (1, 3, 8):
            state_par, items_par = _build_state()
            parallel = ParallelBatchRunner(
                state_par, bind=_bind_tweet, workers=workers
            ).run(_pipeline(), items=items_par)
            assert _texts(parallel) == _texts(sequential)

    def test_step_composition_deterministic(self):
        """Two same-seed runs form byte-identical step traces — batch
        composition is a function of the workload, not thread timing."""
        traces = []
        for _ in range(2):
            state, items = _build_state(n_items=24, seed=13)
            runner = ParallelBatchRunner(state, bind=_bind_tweet, workers=8)
            runner.run(_pipeline(), items=items)
            traces.append(_step_trace(runner.last_batcher))
        assert traces[0] == traces[1]
        assert traces[0]  # a real trace, not two empty lists

    def test_scheduler_false_rejected(self):
        """The parallel runner has one engine; the error names the
        configuration that runs one request per engine step."""
        state, _ = _build_state(n_items=2)
        with pytest.raises(TypeError, match=r"SchedulerConfig\(max_batch=1\)"):
            ParallelBatchRunner(
                state,
                bind=_bind_tweet,
                options=RuntimeOptions(scheduler=False),
            )

    def test_interactive_waits_less_than_bulk(self):
        """Mixed workload: interactive items admit ahead of bulk, so their
        queue waits are strictly better in aggregate."""
        state, items = _build_state(n_items=32, seed=9)
        runner = ParallelBatchRunner(
            state,
            bind=_bind_tweet,
            workers=8,
            options=RuntimeOptions(
                scheduler=SchedulerConfig(max_batch=4, watermark_s=1e9),
                priority=lambda item: "interactive"
                if int(item.uid[-1]) % 4 == 0
                else "bulk",
                deadline_s=lambda item: 2.0
                if int(item.uid[-1]) % 4 == 0
                else None,
            ),
        )
        runner.run(_pipeline(), items=items)
        engine = runner.last_batcher
        stats = engine.wait_stats()
        assert set(stats) == {"interactive", "bulk"}
        assert stats["interactive"]["p50"] <= stats["bulk"]["p50"]
        assert stats["interactive"]["mean"] < stats["bulk"]["mean"]
        # The policy actually reordered work at least once.
        assert engine.preemptions > 0

    def test_no_deadline_inversions_among_admitted(self):
        """Within each step's policy-ordered (non-forced) suffix, the
        admission order respects (priority rank, deadline) — an admitted
        item never sorts behind a worse-ranked peer in its own step."""
        state, items = _build_state(n_items=32, seed=9)
        rank = {"interactive": 0, "normal": 1, "bulk": 2}
        runner = ParallelBatchRunner(
            state,
            bind=_bind_tweet,
            workers=8,
            options=RuntimeOptions(
                scheduler=SchedulerConfig(max_batch=4, watermark_s=1e9),
                priority=lambda item: ("interactive", "normal", "bulk")[
                    int(item.uid[-1]) % 3
                ],
                deadline_s=lambda item: float(1 + int(item.uid[-1]) % 5),
            ),
        )
        runner.run(_pipeline(), items=items)
        for record in runner.last_batcher.steps:
            suffix = record.members[record.forced :]
            keys = [
                (
                    rank[m.priority],
                    m.deadline if m.deadline is not None else float("inf"),
                )
                for m in suffix
            ]
            assert keys == sorted(keys), record

    def test_sched_events_and_batch_payload(self):
        state, items = _build_state(n_items=8)
        runner = ParallelBatchRunner(state, bind=_bind_tweet, workers=4)
        runner.run(_pipeline(), items=items)
        sched_events = state.events.of_kind(EventKind.SCHED)
        assert len(sched_events) == runner.last_batcher.flushes
        payload = sched_events[0].payload
        for key in (
            "step", "size", "tokens", "forced", "preemptions",
            "queue_depth", "wall", "lanes", "classes", "waits",
        ):
            assert key in payload, key
        assert len(payload["lanes"]) == payload["size"]
        batch_payload = state.events.of_kind(EventKind.BATCH)[0].payload
        assert batch_payload["sched_steps"] == runner.last_batcher.flushes
        assert "sched_mean_wait" in batch_payload

    def test_collector_derives_sched_metrics(self):
        state, items = _build_state(n_items=8)
        runner = ParallelBatchRunner(state, bind=_bind_tweet, workers=4)
        runner.run(_pipeline(), items=items)
        collector = ObsCollector()
        collector.replay(state.events)
        registry = collector.registry
        assert registry.sum_counter("spear_sched_steps_total") >= 1
        size_hist = registry.get("spear_sched_step_size")
        assert size_hist is not None and size_hist.max == 4
        wait_hist = registry.get(
            "spear_sched_wait_seconds", **{"class": "normal"}
        )
        assert wait_hist is not None and wait_hist.count == 16


LONG_MAP_PROMPT = (
    "You are a careful social media analyst working for a city transit "
    "agency. Read the rider tweet below and produce a faithful, neutral "
    "summary in at most 30 words. Do not speculate beyond the text, do "
    "not add hashtags, and keep the rider's key complaint intact. If the "
    "tweet names a line, a station, or a time, preserve them exactly.\n"
    "Tweet:\n{tweet}"
)


class TestPrefixAware:
    """Prefix-aware admission: trunk grouping, dedup pricing, pinning."""

    def _run(self, n_items=12, workers=6, seed=7, config=None):
        llm = SimulatedLLM("qwen2.5-7b-instruct")
        corpus = make_tweet_corpus(n_items, seed=seed)
        llm.bind_tweets(corpus)
        state = ExecutionState(model=llm, clock=llm.clock)
        state.prompts.create("map", LONG_MAP_PROMPT)
        runner = ParallelBatchRunner(
            state,
            bind=_bind_tweet,
            workers=workers,
            options=RuntimeOptions(scheduler=config),
        )
        batch = runner.run(
            Pipeline([GEN("summary", prompt="map")]), items=list(corpus)
        )
        return state, runner, batch

    def test_shared_trunk_charged_once_per_step(self):
        state, runner, _ = self._run()
        engine = runner.last_batcher
        assert engine.dedup_tokens_total > 0
        snapshot = engine.snapshot()
        assert snapshot["dedup_tokens"] == engine.dedup_tokens_total
        assert snapshot["mean_step_dedup_tokens"] > 0
        block = state.model.kv_cache.block_size
        for record in engine.steps:
            assert record.dedup_tokens == sum(
                m.dedup_tokens for m in record.members
            )
            for member in record.members:
                # Only cached, block-aligned trunk tokens are deduped.
                assert member.dedup_tokens % block == 0
                assert member.dedup_tokens <= member.prompt_tokens
            if len(record.members) > 1:
                # One shared trunk: every member but the first dedups.
                assert record.prefix_groups == 1
                assert (
                    sum(1 for m in record.members if m.dedup_tokens > 0)
                    == len(record.members) - 1
                )

    def test_dedup_saves_wall_time_outputs_unchanged(self):
        state_on, runner_on, batch_on = self._run()
        state_off, runner_off, batch_off = self._run(
            config=SchedulerConfig(prefix_group_blocks=0, prefix_dedup=False)
        )
        texts = lambda b: [r.context.get("summary") for r in b.items]
        assert texts(batch_on) == texts(batch_off)
        assert runner_off.last_batcher.dedup_tokens_total == 0
        assert all(r.prefix_groups == 0 for r in runner_off.last_batcher.steps)
        # The shared trunk was actually priced once, not once per member.
        assert state_on.clock.now < state_off.clock.now

    def test_pins_released_after_run(self):
        state, runner, _ = self._run()
        snapshot = state.model.kv_cache.snapshot()
        assert snapshot["pinned_blocks"] == 0
        assert snapshot["blocks"] > 0

    def test_legacy_chain_cache_still_works(self):
        from repro.llm.kv_cache import BlockPrefixCache

        llm = SimulatedLLM(
            "qwen2.5-7b-instruct", kv_cache=BlockPrefixCache()
        )
        corpus = make_tweet_corpus(8, seed=7)
        llm.bind_tweets(corpus)
        state = ExecutionState(model=llm, clock=llm.clock)
        state.prompts.create("map", LONG_MAP_PROMPT)
        runner = ParallelBatchRunner(state, bind=_bind_tweet, workers=4)
        batch = runner.run(
            Pipeline([GEN("summary", prompt="map")]), items=list(corpus)
        )
        assert all(r.context.get("summary") for r in batch.items)
        # No pin() on the chain tier: the scheduler degrades gracefully
        # but dedup pricing still applies (it needs only token overlap).
        assert runner.last_batcher.dedup_tokens_total > 0

    def test_prefix_composition_deterministic(self):
        traces = []
        for _ in range(2):
            _, runner, _ = self._run(n_items=24, seed=13, workers=8)
            engine = runner.last_batcher
            traces.append(
                [
                    (
                        record.index,
                        record.dedup_tokens,
                        record.prefix_groups,
                        tuple(m.lane_id for m in record.members),
                        tuple(m.dedup_tokens for m in record.members),
                    )
                    for record in engine.steps
                ]
            )
        assert traces[0] == traces[1]
        assert traces[0]

    def test_trunk_key_and_grouping_unit(self):
        from types import SimpleNamespace

        llm = SimulatedLLM("qwen2.5-7b-instruct")
        engine = GenScheduler(
            llm, config=SchedulerConfig(prefix_group_blocks=1)
        )
        block = llm.kv_cache.block_size

        def req(tokens, lane, rank=1):
            return SimpleNamespace(
                tokens=tokens, lane_id=lane, priority_rank=rank
            )

        trunk_a = list(range(block))
        trunk_b = list(range(1000, 1000 + block))
        r1 = req(trunk_a + [1], lane=0)
        r2 = req(trunk_b + [2], lane=1)
        r3 = req(trunk_a + [3], lane=2)
        # Same trunk, same priority -> same key; grouping pulls r3 next
        # to r1 while group order follows first appearance.
        assert engine._trunk_key(r1) == engine._trunk_key(r3)
        assert engine._trunk_key(r1) != engine._trunk_key(r2)
        assert engine._group_by_trunk([r1, r2, r3]) == [r1, r3, r2]
        # Priority rank is part of the key: bulk never rides an
        # interactive trunk group.
        r4 = req(trunk_a + [4], lane=3, rank=2)
        assert engine._trunk_key(r1) != engine._trunk_key(r4)
        # Short prompts stay singletons keyed by lane.
        short = req(trunk_a[: block - 1], lane=5)
        assert engine._trunk_key(short) == ("solo", 5)

    def test_dedup_capped_by_cached_tokens(self):
        from types import SimpleNamespace

        llm = SimulatedLLM("qwen2.5-7b-instruct")
        engine = GenScheduler(llm)
        block = llm.kv_cache.block_size
        trunk = list(range(3 * block))

        def req(tokens, lane):
            return SimpleNamespace(
                tokens=tokens, lane_id=lane, priority_rank=1
            )

        admitted = [req(trunk + [1], 0), req(trunk + [2], 1)]
        # Second member shares 3 blocks but only 1 survived to its
        # lookup: dedup must not exceed what the cache actually served.
        triples = [(len(trunk) + 1, 0, 10), (len(trunk) + 1, block, 10)]
        assert engine._dedup_tokens(admitted, triples) == [0, block]
        # With ample cache the full trunk dedups.
        triples = [(len(trunk) + 1, 0, 10), (len(trunk) + 1, 3 * block, 10)]
        assert engine._dedup_tokens(admitted, triples) == [0, 3 * block]

    def test_sched_events_carry_prefix_payload(self):
        state, runner, _ = self._run(n_items=8, workers=4)
        sched_events = state.events.of_kind(EventKind.SCHED)
        assert sched_events
        for event in sched_events:
            assert "dedup_tokens" in event.payload
            assert "prefix_groups" in event.payload
        assert sum(e.payload["dedup_tokens"] for e in sched_events) == (
            runner.last_batcher.dedup_tokens_total
        )

    def test_collector_derives_prefix_metrics(self):
        state, runner, _ = self._run(n_items=8, workers=4)
        collector = ObsCollector()
        collector.attach_model(state.model)
        collector.replay(state.events)
        registry = collector.registry
        assert registry.sum_counter("spear_prefix_dedup_tokens_total") == (
            runner.last_batcher.dedup_tokens_total
        )
        hist = registry.get("spear_prefix_step_dedup_tokens")
        assert hist is not None and hist.count == len(
            runner.last_batcher.steps
        )
        groups = registry.get("spear_prefix_groups_per_step")
        assert groups is not None and groups.max >= 1
        kv = state.model.kv_cache.snapshot()
        model_label = {"model": state.model.profile.name}
        for gauge, key in (
            ("spear_prefix_cache_nodes", "nodes"),
            ("spear_prefix_cache_leaves", "leaves"),
            ("spear_prefix_cache_pinned_blocks", "pinned_blocks"),
        ):
            metric = registry.get(gauge, **model_label)
            assert metric is not None, gauge
            assert metric.value == kv[key], gauge


_WORKLOADS = st.tuples(
    st.integers(min_value=1, max_value=16),  # items
    st.integers(min_value=1, max_value=8),  # workers
    st.integers(min_value=0, max_value=2**16),  # seed
    st.lists(  # pipeline stages
        st.sampled_from(["map", "filter"]), min_size=1, max_size=3
    ),
    st.sampled_from([None, 80, 400]),  # max_batch_tokens
    st.sampled_from([0.0, 5.0, 1e9]),  # watermark_s
)


class TestSchedulerProperties:
    @settings(max_examples=20, deadline=None)
    @given(_WORKLOADS)
    def test_byte_identical_and_seed_deterministic(self, workload):
        """On randomized pipelines and policy knobs, scheduler outputs are
        byte-identical to sequential and step composition is a pure
        function of the workload + seed."""
        n_items, workers, seed, stages, max_tokens, watermark = workload
        pipeline = Pipeline(
            [
                GEN(f"out{i}", prompt=key)
                for i, key in enumerate(stages)
            ]
        )
        config = SchedulerConfig(
            max_batch_tokens=max_tokens, watermark_s=watermark
        )

        state_seq, items = _build_state(n_items=n_items, seed=seed)
        sequential = BatchRunner(state_seq, bind=_bind_tweet).run(
            pipeline, items=items
        )
        keys = [f"out{i}" for i in range(len(stages))]

        def outputs(batch):
            return [
                tuple(r.context.get(key) for key in keys)
                for r in batch.items
            ]

        traces = []
        for _ in range(2):
            state_par, items_par = _build_state(n_items=n_items, seed=seed)
            runner = ParallelBatchRunner(
                state_par,
                bind=_bind_tweet,
                workers=workers,
                options=RuntimeOptions(scheduler=config),
            )
            batch = runner.run(pipeline, items=items_par)
            assert outputs(batch) == outputs(sequential)
            traces.append(_step_trace(runner.last_batcher))
        assert traces[0] == traces[1]


class TestSchedulerStress:
    def test_stress_mixed_priorities(self):
        """200 items, mixed priority classes, 8 workers: no lost events,
        no dropped listeners, no deadline inversions among admitted
        items, outputs byte-identical to sequential."""
        n = 200
        state_seq, items = _build_state(n_items=n, seed=11)
        sequential = BatchRunner(state_seq, bind=_bind_tweet).run(
            _pipeline(), items=items
        )

        state_par, items_par = _build_state(n_items=n, seed=11)
        seen = []
        state_par.model.add_listener(lambda result: seen.append(result))
        rank = {"interactive": 0, "normal": 1, "bulk": 2}

        def priority_of(item):
            return ("interactive", "normal", "bulk")[int(item.uid[-1]) % 3]

        runner = ParallelBatchRunner(
            state_par,
            bind=_bind_tweet,
            workers=8,
            options=RuntimeOptions(
                scheduler=SchedulerConfig(max_batch=4, watermark_s=1e9),
                priority=priority_of,
                deadline_s=lambda item: float(1 + int(item.uid[-1]) % 7),
            ),
        )
        parallel = runner.run(_pipeline(), items=items_par)

        # Outputs byte-identical, in item order.
        assert _texts(parallel) == _texts(sequential)

        # Model counters match sequential: no lost increments.
        seq_model = state_seq.model.snapshot()
        par_model = state_par.model.snapshot()
        for key in (
            "calls",
            "total_prompt_tokens",
            "total_cached_tokens",
            "total_output_tokens",
        ):
            assert par_model[key] == seq_model[key], key

        # No dropped listeners: one notification per generation call.
        assert len(seen) == par_model["calls"]
        assert state_par.model.listener_errors == []

        # No lost events in the folded log.
        seq_gen = state_seq.events.of_kind(EventKind.GENERATE)
        par_gen = state_par.events.of_kind(EventKind.GENERATE)
        assert len(par_gen) == len(seq_gen) == 2 * n
        seqs = [e.seq for e in state_par.events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

        # Engine accounting is conserved and drained.
        engine = runner.last_batcher
        assert engine.batched_calls == 2 * n
        snapshot = engine.snapshot()
        assert snapshot["open_lanes"] == 0 and snapshot["pending"] == 0

        # No deadline inversions among admitted items: each step's
        # policy-ordered suffix is sorted by (rank, deadline).
        for record in engine.steps:
            suffix = record.members[record.forced :]
            keys = [
                (
                    rank[m.priority],
                    m.deadline if m.deadline is not None else float("inf"),
                )
                for m in suffix
            ]
            assert keys == sorted(keys)


class TestStarvationRegression:
    def test_lane_raising_before_first_submit_releases_peers(self):
        """Runner-level regression: an item whose bind raises on a lane's
        first item must not starve peers waiting in the admission set.
        A watchdog bounds the run so a regression fails fast instead of
        hanging the suite."""
        state, items = _build_state(n_items=8)

        def bind_or_boom(item_state, tweet):
            if int(tweet.uid[-1]) % 2 == 1:  # every odd lane's first item
                raise ValueError(f"bad item {tweet.uid}")
            _bind_tweet(item_state, tweet)

        runner = ParallelBatchRunner(
            state, bind=bind_or_boom, workers=8, on_error="collect"
        )
        outcome = {}

        def run():
            outcome["batch"] = runner.run(_pipeline(), items=items)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive(), "parallel run deadlocked"
        batch = outcome["batch"]
        assert len(batch.items) == 8
        assert len(batch.failures()) == 4
        assert all(r.ok for r in batch.items if r not in batch.failures())


class TestExecutorIntegration:
    def test_single_lane_executor_byte_identical(self):
        from repro.runtime.executor import Executor

        def run(options):
            llm = SimulatedLLM("qwen2.5-7b-instruct")
            llm.bind_tweets(make_tweet_corpus(4, seed=3))
            executor = Executor(options=options.replace(model=llm))
            state = executor.new_state(
                context={"tweet": "the trains are late again, awful"}
            )
            state.prompts.create("map", MAP_PROMPT)
            result = executor.run(
                Pipeline([GEN("summary", prompt="map")]), state=state
            )
            return result

        plain = run(RuntimeOptions())
        sched = run(RuntimeOptions(scheduler=True, deadline_s=5.0))
        assert sched.output("summary") == plain.output("summary")
        assert sched.elapsed == pytest.approx(plain.elapsed)
        kinds = [e.kind for e in sched.events]
        assert EventKind.SCHED in kinds
        assert EventKind.SCHED not in [e.kind for e in plain.events]

    def test_refinement_loop_marks_iterations_bulk(self):
        from repro.core import REF, RefAction
        from repro.runtime.executor import Executor
        from repro.runtime.incremental import RefinementLoop

        llm = SimulatedLLM("qwen2.5-7b-instruct")
        llm.bind_tweets(make_tweet_corpus(4, seed=3))
        executor = Executor(
            options=RuntimeOptions(model=llm, scheduler=True)
        )
        state = executor.new_state(
            context={"tweet": "the trains are late again, awful"}
        )
        state.prompts.create("map", MAP_PROMPT)
        loop = RefinementLoop(
            executor,
            Pipeline([GEN("summary", prompt="map")]),
            refiners=[REF(RefAction.APPEND, "Be concise.", key="map")],
            max_iterations=2,
        )
        loop.run(state=state)
        sched_events = [
            e for e in state.events.all() if e.kind is EventKind.SCHED
        ]
        assert sched_events
        classes = {
            priority
            for event in sched_events
            for priority in event.payload["classes"]
        }
        assert classes == {"bulk"}
