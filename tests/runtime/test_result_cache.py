"""Tests for the operator-level result cache (version-precise invalidation)."""

import json

import pytest

from repro.core import GEN, REF, Pipeline, RefAction
from repro.core.footprint import Footprint
from repro.core.state import ExecutionState
from repro.data import make_tweet_corpus
from repro.llm.model import SimulatedLLM
from repro.runtime.events import EventKind
from repro.runtime.executor import Executor
from repro.runtime.options import RuntimeOptions
from repro.runtime.result_cache import ReadOnlyResultCache, ResultCache

MAP_PROMPT = (
    "Summarize and clean up the tweet in at most 30 words.\nTweet:\n{tweet}"
)
DIGEST_PROMPT = (
    "Condense the summary above into one takeaway.\nSummary:\n{summary}"
)
FILTER_PROMPT = (
    "Select the tweet only if its sentiment is negative. "
    "Respond with yes or no.\nTweet:\n{tweet}"
)


def _build_state(seed=7):
    # The prefix cache is off so GEN is cacheable: with it on, simulated
    # latency depends on cache warmth (hidden state), and GEN.footprint
    # conservatively declines to participate.
    llm = SimulatedLLM("qwen2.5-7b-instruct", enable_prefix_cache=False)
    corpus = make_tweet_corpus(4, seed=seed)
    llm.bind_tweets(corpus)
    state = ExecutionState(model=llm, clock=llm.clock)
    state.prompts.create("map_p", MAP_PROMPT)
    state.prompts.create("digest_p", DIGEST_PROMPT)
    state.prompts.create("filter_p", FILTER_PROMPT)
    state.context.put("tweet", corpus[0].text, producer="test")
    return state


def _pipeline():
    # summary feeds takeaway (context edge); verdict reads the raw tweet.
    return Pipeline(
        [
            GEN("summary", prompt="map_p"),
            GEN("takeaway", prompt="digest_p"),
            GEN("verdict", prompt="filter_p"),
        ]
    )


def _executor(state, cache):
    return Executor(
        options=RuntimeOptions(
            model=state.model, clock=state.clock, result_cache=cache
        )
    )


def _freeze(state):
    context = {key: repr(state.context[key]) for key in state.context.keys()}
    metadata = {key: repr(state.metadata[key]) for key in state.metadata.keys()}
    return json.dumps({"context": context, "metadata": metadata}, sort_keys=True)


def _cache_hit_operators(events):
    # ``events`` is a RunResult's per-run slice (a plain list of Events).
    return [
        event.operator
        for event in events
        if event.kind is EventKind.CACHE_HIT
    ]


class TestHitPath:
    def test_second_run_hits_every_gen(self):
        state = _build_state()
        cache = ResultCache()
        executor = _executor(state, cache)

        first = executor.run(_pipeline(), state=state)
        assert first.cache["hits"] == 0
        assert first.cache["misses"] == 3

        second = executor.run(_pipeline(), state=first.state)
        assert second.cache["hits"] == 3
        assert second.cache["misses"] == 0
        assert second.elapsed == pytest.approx(3 * cache.hit_cost)
        assert second.cache["saved_seconds"] > 0

    def test_cache_hit_events_emitted_inside_operator_spans(self):
        state = _build_state()
        executor = _executor(state, ResultCache())
        executor.run(_pipeline(), state=state)
        second = executor.run(_pipeline(), state=state)

        hits = [
            event
            for event in second.events
            if event.kind is EventKind.CACHE_HIT
        ]
        assert [event.operator for event in hits] == [
            'GEN["summary"]',
            'GEN["takeaway"]',
            'GEN["verdict"]',
        ]
        payload = hits[0].payload
        assert payload["prompt_keys"] == ["map_p"]
        assert payload["saved_seconds"] > 0
        assert payload["fingerprint"]
        # Each hit sits between its operator's START and END events.
        kinds = [event.kind for event in second.events]
        for index, event in enumerate(second.events):
            if event.kind is EventKind.CACHE_HIT:
                assert kinds[index - 1] is EventKind.OPERATOR_START
                assert kinds[index + 1] is EventKind.OPERATOR_END

    def test_cached_outputs_byte_identical_to_uncached(self):
        uncached = _build_state()
        executor = Executor(
            options=RuntimeOptions(model=uncached.model, clock=uncached.clock)
        )
        executor.run(_pipeline(), state=uncached)
        executor.run(_pipeline(), state=uncached)

        cached = _build_state()
        executor = _executor(cached, ResultCache())
        executor.run(_pipeline(), state=cached)
        executor.run(_pipeline(), state=cached)

        assert _freeze(cached) == _freeze(uncached)

    def test_no_cache_still_runs(self):
        state = _build_state()
        executor = Executor(
            options=RuntimeOptions(model=state.model, clock=state.clock)
        )
        result = executor.run(_pipeline(), state=state)
        assert result.cache == {}
        assert "verdict" in result.state.context


class TestInvalidationPrecision:
    """Refining one prompt invalidates exactly its transitive dependents."""

    def test_refining_leaf_prompt_keeps_upstream_hits(self):
        state = _build_state()
        cache = ResultCache()
        executor = _executor(state, cache)
        executor.run(_pipeline(), state=state)

        # verdict depends on filter_p alone; summary/takeaway do not.
        REF(RefAction.APPEND, "Focus on school.", key="filter_p").apply(state)
        assert cache.invalidations == 1
        assert len(cache) == 2

        second = executor.run(_pipeline(), state=state)
        assert second.cache["hits"] == 2
        assert second.cache["misses"] == 1
        assert _cache_hit_operators(second.events) == [
            'GEN["summary"]',
            'GEN["takeaway"]',
        ]

    def test_refining_upstream_prompt_chases_context_edges(self):
        state = _build_state()
        cache = ResultCache()
        executor = _executor(state, cache)
        executor.run(_pipeline(), state=state)

        # summary reads map_p; takeaway reads summary's *output* —
        # transitive via the writer → reader edge.  verdict reads only
        # the raw tweet and filter_p, so it survives.
        REF(RefAction.APPEND, "Mention the author.", key="map_p").apply(state)
        assert cache.invalidations == 2
        assert len(cache) == 1

        second = executor.run(_pipeline(), state=state)
        assert 'GEN["verdict"]' in _cache_hit_operators(second.events)
        assert second.cache["misses"] == 2

    def test_refined_prompt_reinserts_at_new_version(self):
        state = _build_state()
        cache = ResultCache()
        executor = _executor(state, cache)
        executor.run(_pipeline(), state=state)
        REF(RefAction.APPEND, "Focus.", key="filter_p").apply(state)
        executor.run(_pipeline(), state=state)  # repopulates at v1

        # Re-running now hits everything again — the v1 entry is live.
        third = executor.run(_pipeline(), state=state)
        assert third.cache["hits"] == 3
        assert third.cache["misses"] == 0

    def test_silent_version_bump_never_produces_stale_hit(self):
        # A record() that bypasses the event log gets no invalidation,
        # but the version/text digest in the fingerprint already misses.
        state = _build_state()
        cache = ResultCache()
        executor = _executor(state, cache)
        executor.run(_pipeline(), state=state)

        entry = state.prompts["filter_p"]
        entry.record(
            RefAction.APPEND, entry.text + "\nBe strict.", function="f_manual"
        )
        assert cache.invalidations == 0  # no event seen

        second = executor.run(_pipeline(), state=state)
        assert second.cache["misses"] == 1
        assert second.cache["hits"] == 2

    def test_invalidate_prompt_directly(self):
        state = _build_state()
        cache = ResultCache()
        executor = _executor(state, cache)
        executor.run(_pipeline(), state=state)
        removed = cache.invalidate_prompt("map_p")
        assert removed == 2  # summary + its reader, takeaway
        assert cache.invalidate_prompt("map_p") == 0  # idempotent


class TestSubscriptionGuard:
    def test_foreign_store_refinement_ignored(self):
        state = _build_state()
        cache = ResultCache()
        executor = _executor(state, cache)
        executor.run(_pipeline(), state=state)

        # A REFINE event whose version does not match the bound store's
        # current version is a clone's edit — it must not invalidate.
        state.events.emit(
            EventKind.REFINE,
            'REF["filter_p"]',
            at=state.clock.now,
            key="filter_p",
            version=99,
        )
        assert cache.invalidations == 0

        # An unknown key is likewise ignored.
        state.events.emit(
            EventKind.REFINE,
            'REF["ghost"]',
            at=state.clock.now,
            key="ghost",
            version=1,
        )
        assert cache.invalidations == 0

    def test_subscribe_idempotent_per_log(self):
        state = _build_state()
        cache = ResultCache()
        cache.subscribe_to(state.events, state.prompts)
        cache.subscribe_to(state.events, state.prompts)
        executor = _executor(state, cache)
        executor.run(_pipeline(), state=state)
        REF(RefAction.APPEND, "Focus.", key="filter_p").apply(state)
        # A double subscription would double-count the invalidation.
        assert cache.invalidations == 1


    def test_late_state_refinement_invalidates(self):
        # One cache outlives many short-lived states.  A freed log's id()
        # is reused by later logs, which must still get a listener.
        llm = SimulatedLLM("qwen2.5-7b-instruct", enable_prefix_cache=False)
        corpus = make_tweet_corpus(4, seed=7)
        llm.bind_tweets(corpus)
        cache = ResultCache()
        executor = Executor(
            options=RuntimeOptions(model=llm, clock=llm.clock, result_cache=cache)
        )
        pipeline = Pipeline([GEN("verdict", prompt="filter_p")])
        states = 100
        for _ in range(states):
            state = executor.new_state(context={"tweet": corpus[0].text})
            state.prompts.create("filter_p", FILTER_PROMPT)
            executor.run(pipeline, state=state)
            REF(RefAction.APPEND, "Focus.", key="filter_p").apply(state)
            assert len(cache) == 0
            del state
        assert cache.invalidations == states


class TestCacheMechanics:
    def test_lru_eviction_at_capacity(self):
        state = _build_state()
        cache = ResultCache(capacity=2)
        executor = _executor(state, cache)
        executor.run(_pipeline(), state=state)
        assert len(cache) == 2
        assert cache.evictions == 1

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)
        with pytest.raises(ValueError):
            ResultCache(hit_cost=-1.0)

    def test_snapshot_and_hit_rate(self):
        state = _build_state()
        cache = ResultCache()
        executor = _executor(state, cache)
        executor.run(_pipeline(), state=state)
        executor.run(_pipeline(), state=state)
        snapshot = cache.snapshot()
        assert snapshot["entries"] == 3.0
        assert snapshot["hits"] == 3.0
        assert snapshot["misses"] == 3.0
        assert snapshot["hit_rate"] == pytest.approx(0.5)
        assert cache.hit_rate == pytest.approx(0.5)

    def test_clear_drops_entries_keeps_counters(self):
        state = _build_state()
        cache = ResultCache()
        executor = _executor(state, cache)
        executor.run(_pipeline(), state=state)
        cache.clear()
        assert len(cache) == 0
        assert cache.misses == 3
        second = executor.run(_pipeline(), state=state)
        assert second.cache["misses"] == 3

    def test_prefix_cache_enabled_disables_gen_caching(self):
        llm = SimulatedLLM("qwen2.5-7b-instruct")  # prefix cache ON
        corpus = make_tweet_corpus(2, seed=7)
        llm.bind_tweets(corpus)
        state = ExecutionState(model=llm, clock=llm.clock)
        state.prompts.create("filter_p", FILTER_PROMPT)
        state.context.put("tweet", corpus[0].text, producer="test")
        cache = ResultCache()
        executor = _executor(state, cache)
        pipeline = Pipeline([GEN("verdict", prompt="filter_p")])
        executor.run(pipeline, state=state)
        executor.run(pipeline, state=state)
        assert cache.hits == 0 and cache.misses == 0
        assert len(cache) == 0


class TestReadOnlyView:
    def test_read_only_hits_but_never_mutates(self):
        state = _build_state()
        cache = ResultCache()
        executor = _executor(state, cache)
        executor.run(_pipeline(), state=state)

        view = cache.read_only()
        assert isinstance(view, ReadOnlyResultCache)
        assert view.read_only() is view
        assert len(view) == len(cache)
        assert view.recorder(state) is None
        assert view.invalidate_prompt("map_p") == 0
        assert len(cache) == 3  # nothing invalidated through the view

        footprint = Footprint(operator="X", identity="x", model_key=None)
        view.insert(footprint, None)
        assert len(cache) == 3
        assert view.lookup(footprint) is None  # counted on the primary
        assert cache.misses == 4
        assert view.snapshot()["entries"] == 3.0
        assert view.hit_cost == cache.hit_cost

    def test_shadow_fork_shares_cache_read_only(self):
        state = _build_state()
        cache = ResultCache()
        executor = _executor(state, cache)
        executor.run(_pipeline(), state=state)

        from repro.runtime.shadow import shadow_run

        entries_before = len(cache)
        report = shadow_run(
            state,
            _pipeline(),
            Pipeline(
                [
                    REF(RefAction.APPEND, "Be strict.", key="filter_p"),
                    GEN("verdict", prompt="filter_p"),
                ]
            ),
        )
        assert report is not None
        # The shadow's refinement of its cloned store must not have
        # invalidated the primary's entries, nor inserted speculative
        # ones for its diverged prompt.
        assert len(cache) == entries_before
        assert cache.invalidations == 0
