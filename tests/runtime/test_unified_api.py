"""Unified runner API: run(pipeline, *, items=, options=) + result protocol.

Every runner — Executor, BatchRunner, ParallelBatchRunner,
RefinementLoop — accepts the same ``run`` shape, and every result obeys
the shared protocol: ``.output(label)``, ``.report``, ``.cache``.  The
serving layer dispatches to any of them without caring which.
"""

import warnings

import pytest

from repro.core import GEN, REF, Pipeline, RefAction
from repro.core.state import ExecutionState
from repro.data import make_tweet_corpus
from repro.llm.model import SimulatedLLM
from repro.runtime.batch import BatchRunner, bind_item
from repro.runtime.executor import Executor
from repro.runtime.incremental import RefinementLoop
from repro.runtime.options import RuntimeOptions
from repro.runtime.parallel import ParallelBatchRunner
from repro.runtime.result_cache import ResultCache

PROMPT = "Summarize the tweet in at most 30 words.\nTweet:\n{tweet}"


def _llm(n_items=4, seed=7, prefix_cache=True):
    # prefix_cache=False keeps GEN pure so the result cache can memoize.
    llm = SimulatedLLM(
        "qwen2.5-7b-instruct", enable_prefix_cache=prefix_cache
    )
    corpus = make_tweet_corpus(n_items, seed=seed)
    llm.bind_tweets(corpus)
    return llm, list(corpus)


def _items(corpus):
    return [{"tweet": tweet.text} for tweet in corpus]


def _state(llm, **kwargs):
    state = ExecutionState(model=llm, clock=llm.clock, **kwargs)
    state.prompts.create("map", PROMPT)
    return state


def _pipeline():
    return Pipeline([GEN("summary", prompt="map")])


class TestBindItem:
    def test_mapping_spreads_into_context(self):
        llm, _ = _llm()
        state = ExecutionState(model=llm, clock=llm.clock)
        bind_item(state, {"tweet": "hello", "lang": "en"})
        assert state.context["tweet"] == "hello"
        assert state.context["lang"] == "en"

    def test_scalar_lands_under_item(self):
        llm, _ = _llm()
        state = ExecutionState(model=llm, clock=llm.clock)
        bind_item(state, "hello")
        assert state.context["item"] == "hello"

    def test_none_binds_nothing(self):
        llm, _ = _llm()
        state = ExecutionState(model=llm, clock=llm.clock)
        bind_item(state, None)
        assert list(state.context.keys()) == []


class TestExecutorUnifiedRun:
    def test_items_fan_out_returns_batch_result(self):
        llm, corpus = _llm()
        executor = Executor(options=RuntimeOptions(model=llm, clock=llm.clock))
        batch = executor.run(
            _pipeline(), items=_items(corpus), state=_state(llm)
        )
        assert len(batch.items) == len(corpus)
        assert all(batch.output("summary"))

    def test_items_with_base_state_shares_prompts(self):
        llm, corpus = _llm()
        executor = Executor(options=RuntimeOptions(model=llm, clock=llm.clock))
        base = _state(llm)
        batch = executor.run(_pipeline(), items=_items(corpus), state=base)
        # Items forked from the base: its own context stays untouched.
        assert "summary" not in list(base.context.keys())
        assert not batch.failures()

    def test_per_call_options_override(self):
        llm, corpus = _llm(prefix_cache=False)
        executor = Executor(options=RuntimeOptions(model=llm, clock=llm.clock))
        cache = ResultCache()
        options = RuntimeOptions(
            model=llm, clock=llm.clock, result_cache=cache
        )
        state = _state(llm)
        state.context.put("tweet", corpus[0].text, producer="test")
        pipeline = _pipeline()
        executor.run(pipeline, options=options, state=state)
        executor.run(pipeline, options=options, state=state)
        assert cache.snapshot()["hits"] >= 1
        # The original executor is untouched by the per-call override.
        assert executor.result_cache is None


class TestSharedResultProtocol:
    def test_run_result_protocol(self):
        llm, corpus = _llm()
        executor = Executor(options=RuntimeOptions(model=llm, clock=llm.clock))
        state = _state(llm)
        state.context.put("tweet", corpus[0].text, producer="test")
        result = executor.run(_pipeline(), state=state)
        assert result.output("summary")
        report = result.report
        assert report["runner"] == "run"
        assert report["elapsed"] == result.elapsed
        assert isinstance(result.cache, dict)

    def test_batch_result_protocol_sequential(self):
        llm, corpus = _llm()
        batch = BatchRunner(_state(llm)).run(_pipeline(), items=_items(corpus))
        assert batch.output("summary") == batch.outputs("summary")
        report = batch.report
        assert report["runner"] == "batch"
        assert report["items"] == len(corpus)
        assert report["throughput"] == batch.throughput

    def test_batch_result_protocol_parallel(self):
        llm, corpus = _llm()
        runner = ParallelBatchRunner(_state(llm), workers=2)
        batch = runner.run(_pipeline(), items=_items(corpus))
        assert all(batch.output("summary"))
        assert batch.report["workers"] == 2

    def test_batch_cache_delta_in_protocol(self):
        llm, corpus = _llm(prefix_cache=False)
        state = _state(llm)
        cache = ResultCache()
        state.result_cache = cache
        cache.subscribe_to(state.events, state.prompts)
        runner = BatchRunner(state)
        runner.run(_pipeline(), items=_items(corpus))
        warm = runner.run(_pipeline(), items=_items(corpus))
        assert warm.cache["hits"] >= 1
        assert warm.report["cache"]["hits"] == warm.cache["hits"]

    def test_loop_report_protocol(self):
        llm, corpus = _llm()
        state = _state(llm)
        state.context.put("tweet", corpus[0].text, producer="test")
        loop = RefinementLoop(
            pipeline=_pipeline(),
            refiners=[REF(RefAction.APPEND, "Shorter.", key="map")],
            options=RuntimeOptions(
                model=llm, clock=llm.clock, result_cache=ResultCache()
            ),
        )
        report = loop.run(state=state)
        assert report.output("summary")
        assert report.report["runner"] == "loop"
        assert set(report.cache) == {
            "hits", "misses", "invalidations", "saved_seconds"
        }


class TestRefinementLoopUnifiedRun:
    def _loop(self, llm):
        return RefinementLoop(
            pipeline=_pipeline(),
            refiners=[],
            options=RuntimeOptions(model=llm, clock=llm.clock),
        )

    def _state(self, llm, corpus):
        state = _state(llm)
        state.context.put("tweet", corpus[0].text, producer="test")
        return state

    def test_positional_state_rejected(self):
        llm, corpus = _llm()
        loop = self._loop(llm)
        state = self._state(llm, corpus)
        with pytest.raises(TypeError, match="state="):
            loop.run(state)

    def test_state_keyword_does_not_warn(self):
        llm, corpus = _llm()
        loop = self._loop(llm)
        state = self._state(llm, corpus)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            report = loop.run(state=state)
        assert report.final is not None

    def test_items_raises_clean_typeerror(self):
        llm, corpus = _llm()
        loop = self._loop(llm)
        state = self._state(llm, corpus)
        with pytest.raises(TypeError, match="items="):
            loop.run(items=_items(corpus), state=state)

    def test_state_required(self):
        llm, _ = _llm()
        with pytest.raises(TypeError, match="state="):
            self._loop(llm).run()

    def test_pipeline_override_runs_given_pipeline(self):
        llm, corpus = _llm()
        loop = self._loop(llm)
        state = self._state(llm, corpus)
        override = Pipeline([GEN("alt", prompt="map")])
        report = loop.run(override, state=state)
        assert report.output("alt")
        # The loop itself is unchanged for later runs.
        assert loop.pipeline is not override


class TestParallelRunnerDeprecations:
    def test_positional_items_rejected(self):
        llm, corpus = _llm()
        runner = ParallelBatchRunner(_state(llm), workers=2)
        with pytest.raises(TypeError):
            runner.run(_pipeline(), _items(corpus))

    def test_default_binder_used_when_bind_omitted(self):
        llm, corpus = _llm()
        batch = ParallelBatchRunner(_state(llm), workers=2).run(
            _pipeline(), items=_items(corpus)
        )
        assert all(batch.output("summary"))

    def test_per_call_options_build_sibling(self):
        from repro.obs.metrics import MetricsRegistry

        llm, corpus = _llm()
        runner = ParallelBatchRunner(_state(llm), workers=2)
        metrics = MetricsRegistry()
        batch = runner.run(
            _pipeline(),
            items=_items(corpus),
            options=RuntimeOptions(metrics=metrics),
        )
        assert not batch.failures()
        assert runner.last_batcher is not None
