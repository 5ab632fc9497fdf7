"""Ablation: how much of the refinement speedup is the prefix cache?

DESIGN.md §5: Table 3's refinement-mode speedups rest on prefix reuse.
This bench re-runs the manual-refinement pipeline with the KV cache
disabled, and sweeps the cache block size to show hit-rate sensitivity to
block quantization.
"""

from __future__ import annotations

import pytest

from repro.data.tweets import make_tweet_corpus
from repro.experiments.common import build_views, compose_item_prompt
from repro.llm.model import SimulatedLLM
from repro.llm.radix_cache import RadixPrefixCache

N_ITEMS = 150
_corpus = make_tweet_corpus(N_ITEMS, seed=7)
_views = build_views()
_instructions = (
    _views.expand("filter_stage")
    + "\nFocus on school-related content such as classes, exams, and homework."
)


def _run_filter_stage(llm: SimulatedLLM) -> tuple[float, float]:
    """Run the refined filter stage; returns (sim_seconds, hit_rate)."""
    llm.bind_tweets(_corpus)
    for tweet in _corpus:
        llm.generate(compose_item_prompt(_instructions, tweet.text))
    return llm.total_latency, llm.overall_cache_hit_rate


def test_prefix_cache_enabled(once):
    seconds, hit_rate = once(_run_filter_stage, SimulatedLLM())
    assert hit_rate > 0.75


def test_prefix_cache_disabled(once):
    seconds_off, hit_rate = once(
        _run_filter_stage, SimulatedLLM(enable_prefix_cache=False)
    )
    assert hit_rate == 0.0
    seconds_on, __ = _run_filter_stage(SimulatedLLM())
    # The cache is worth a large share of the stage latency.
    assert seconds_off / seconds_on > 1.5
    print(f"prefix cache speedup: {seconds_off / seconds_on:.2f}x")


@pytest.mark.parametrize("block_size", [4, 16, 64])
def test_block_size_sweep(once, block_size):
    """Smaller blocks waste less of the shared prefix to quantization."""
    llm = SimulatedLLM(kv_cache=RadixPrefixCache(block_size=block_size))
    __, hit_rate = once(_run_filter_stage, llm)
    assert hit_rate > 0.5
    print(f"block_size={block_size}: hit rate {hit_rate:.1%}")


def test_block_size_monotonicity(once):
    """Hit rate decreases (weakly) as blocks grow coarser."""

    def sweep():
        rates = []
        for block_size in (4, 16, 64):
            llm = SimulatedLLM(kv_cache=RadixPrefixCache(block_size=block_size))
            __, hit_rate = _run_filter_stage(llm)
            rates.append(hit_rate)
        return rates

    rates = once(sweep)
    assert rates[0] >= rates[1] >= rates[2]
