"""RuntimeOptions: one config object for all runners."""

import inspect
import warnings

import pytest

from repro.core import GEN, Pipeline
from repro.core.state import ExecutionState
from repro.data import make_tweet_corpus
from repro.llm.model import SimulatedLLM
from repro.obs.metrics import MetricsRegistry
from repro.resilience import ResilienceRuntime, RetryPolicy
from repro.runtime.executor import Executor
from repro.runtime.incremental import RefinementLoop
from repro.runtime.options import RuntimeOptions
from repro.runtime.parallel import ParallelBatchRunner
from repro.runtime.result_cache import ResultCache

PROMPT = "Summarize the tweet in at most 30 words.\nTweet:\n{tweet}"


def _llm(n_items=6, seed=7):
    llm = SimulatedLLM("qwen2.5-7b-instruct")
    corpus = make_tweet_corpus(n_items, seed=seed)
    llm.bind_tweets(corpus)
    return llm, list(corpus)


def _bind(state, tweet):
    state.context.put("tweet", tweet.text, producer="bind")


class TestRuntimeOptionsObject:
    def test_defaults_are_empty(self):
        options = RuntimeOptions()
        assert options.model is None
        assert options.resilience is None

    def test_replace_returns_updated_copy(self):
        base = RuntimeOptions()
        resilience = ResilienceRuntime(retry=RetryPolicy())
        updated = base.replace(resilience=resilience)
        assert updated.resilience is resilience
        assert base.resilience is None


class TestExecutorOptions:
    def test_options_configure_executor(self):
        llm, _ = _llm()
        cache = ResultCache()
        resilience = ResilienceRuntime(retry=RetryPolicy())
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            executor = Executor(
                options=RuntimeOptions(
                    model=llm, result_cache=cache, resilience=resilience
                )
            )
        assert executor.model is llm
        assert executor.result_cache is cache
        state = executor.new_state()
        assert state.resilience is resilience

    def test_options_is_the_only_keyword(self):
        assert list(inspect.signature(Executor).parameters) == ["options"]


class TestParallelRunnerOptions:
    def test_options_attach_metrics_and_resilience(self):
        llm, items = _llm()
        state = ExecutionState(model=llm, clock=llm.clock)
        state.prompts.create("map", PROMPT)
        metrics = MetricsRegistry()
        resilience = ResilienceRuntime(retry=RetryPolicy())
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            runner = ParallelBatchRunner(
                state,
                bind=_bind,
                workers=2,
                options=RuntimeOptions(metrics=metrics, resilience=resilience),
            )
        assert runner.metrics is metrics
        assert state.resilience is resilience
        batch = runner.run(Pipeline([GEN("summary", prompt="map")]), items=items)
        assert not batch.failures()

    def test_engine_knobs_live_in_options(self):
        # metrics, max_batch and one-call-per-step all come from options.
        assert list(inspect.signature(ParallelBatchRunner).parameters) == [
            "base_state", "bind", "on_error", "workers", "options",
            "isolate_prompts",
        ]


class TestRefinementLoopOptions:
    def test_loop_builds_executor_from_options(self):
        llm, _ = _llm()
        pipeline = Pipeline([GEN("summary", prompt="map")])
        loop = RefinementLoop(
            pipeline=pipeline,
            refiners=[],
            options=RuntimeOptions(model=llm),
        )
        assert loop.executor.model is llm

    def test_executor_and_options_conflict(self):
        llm, _ = _llm()
        pipeline = Pipeline([GEN("summary", prompt="map")])
        with pytest.raises(TypeError):
            RefinementLoop(
                Executor(options=RuntimeOptions(model=llm)),
                pipeline,
                refiners=[],
                options=RuntimeOptions(model=llm),
            )

    def test_pipeline_required(self):
        with pytest.raises(TypeError, match="pipeline"):
            RefinementLoop(refiners=[])
