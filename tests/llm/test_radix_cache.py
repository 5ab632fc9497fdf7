"""Tests for the radix-tree prefix cache.

Covers the lookup/insert contract, leaf-first eviction (every resident
block stays reachable), pinning, and accounting properties.  Exact
agreement with a naive reference model on the no-eviction path lives in
``test_kv_cache_reference.py``.
"""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm.radix_cache import RadixPrefixCache, shared_prefix_tokens

tokens_strategy = st.lists(
    st.integers(min_value=0, max_value=2**32 - 1), max_size=120
)
workload_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=255), max_size=40),
    max_size=12,
)


class TestSharedPrefixTokens:
    def test_identical_sequences(self):
        assert shared_prefix_tokens([1, 2, 3, 4], [1, 2, 3, 4], 4) == 4

    def test_divergence_at_start(self):
        assert shared_prefix_tokens([9, 2, 3, 4], [1, 2, 3, 4], 4) == 0

    def test_partial_block_not_counted(self):
        # 6 shared tokens but only one complete 4-token block.
        assert shared_prefix_tokens(list(range(6)), list(range(6)), 4) == 4

    def test_mid_block_divergence_rounds_down(self):
        a = [1, 2, 3, 4, 5, 6, 7, 8]
        b = [1, 2, 3, 4, 5, 99, 7, 8]
        assert shared_prefix_tokens(a, b, 4) == 4

    def test_block_size_validated(self):
        with pytest.raises(ValueError):
            shared_prefix_tokens([1], [1], 0)


class TestRadixContract:
    """Lookup, insert and accounting semantics."""

    def test_cold_lookup_misses(self):
        cache = RadixPrefixCache(block_size=4)
        assert cache.match_prefix(list(range(8))) == 0
        assert cache.stats.cached_tokens == 0

    def test_exact_repeat_hits_all_complete_blocks(self):
        cache = RadixPrefixCache(block_size=4)
        tokens = list(range(10))  # 2 complete blocks + 2 spare tokens
        cache.lookup_and_insert(tokens)
        assert cache.lookup_and_insert(tokens) == 8

    def test_shared_prefix_partial_hit(self):
        cache = RadixPrefixCache(block_size=4)
        cache.insert(list(range(12)))
        probe = list(range(8)) + [99, 98, 97, 96]
        assert cache.match_prefix(probe) == 8

    def test_divergence_at_start_means_no_hit(self):
        cache = RadixPrefixCache(block_size=4)
        cache.insert(list(range(12)))
        probe = [99] + list(range(1, 12))
        assert cache.match_prefix(probe) == 0

    def test_no_mid_sequence_reuse(self):
        cache = RadixPrefixCache(block_size=4)
        cache.insert([1, 2, 3, 4, 5, 6, 7, 8])
        assert cache.match_prefix([5, 6, 7, 8]) == 0

    def test_branch_point_shares_trunk(self):
        cache = RadixPrefixCache(block_size=4)
        trunk = list(range(8))
        cache.insert(trunk + [10, 11, 12, 13])
        cache.insert(trunk + [20, 21, 22, 23])
        # 2 trunk blocks stored once + 2 divergent leaves.
        assert len(cache) == 4
        assert cache.match_prefix(trunk + [20, 21, 22, 23]) == 12

    def test_hit_rate_accounting(self):
        cache = RadixPrefixCache(block_size=4)
        tokens = list(range(8))
        cache.lookup_and_insert(tokens)
        cache.lookup_and_insert(tokens)
        assert cache.stats.prompt_tokens == 16
        assert cache.stats.cached_tokens == 8
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_short_sequences_never_cached(self):
        cache = RadixPrefixCache(block_size=16)
        cache.lookup_and_insert(list(range(10)))
        assert cache.lookup_and_insert(list(range(10))) == 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RadixPrefixCache(block_size=0)
        with pytest.raises(ValueError):
            RadixPrefixCache(capacity_blocks=0)

    def test_clear_resets(self):
        cache = RadixPrefixCache(block_size=4)
        cache.lookup_and_insert(list(range(8)))
        cache.pin(list(range(8)))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0
        assert cache.snapshot()["pinned_blocks"] == 0

    def test_snapshot_keys(self):
        radix = RadixPrefixCache(block_size=4)
        radix.lookup_and_insert(list(range(8)))
        assert radix.snapshot() == {
            "blocks": 2,
            "capacity_blocks": radix.capacity_blocks,
            "block_size": 4,
            "lookups": 1,
            "prompt_tokens": 8,
            "cached_tokens": 0,
            "block_hits": 0,
            "block_misses": 1,
            "evictions": 0,
            "hit_rate": 0.0,
            "nodes": 2,
            "leaves": 1,
            "pinned_blocks": 0,
        }


class TestEviction:
    def test_leaf_first_lru_eviction(self):
        cache = RadixPrefixCache(block_size=4, capacity_blocks=2)
        cache.insert([1, 2, 3, 4])          # block A
        cache.insert([5, 6, 7, 8])          # block B
        cache.insert([9, 10, 11, 12])       # block C -> evicts A
        assert cache.stats.evictions == 1
        assert cache.match_prefix([1, 2, 3, 4]) == 0
        assert cache.match_prefix([9, 10, 11, 12]) == 4

    def test_recency_updated_on_hit(self):
        cache = RadixPrefixCache(block_size=4, capacity_blocks=2)
        cache.insert([1, 2, 3, 4])
        cache.insert([5, 6, 7, 8])
        cache.match_prefix([1, 2, 3, 4])    # A is now most recent
        cache.insert([9, 10, 11, 12])       # evicts B
        assert cache.match_prefix([1, 2, 3, 4]) == 4
        assert cache.match_prefix([5, 6, 7, 8]) == 0

    def test_leaf_first_eviction_keeps_trunk_reachable(self):
        """Eviction never strands a resident block behind a missing parent.

        Two 3-block sequences at capacity 4: a flat LRU over blocks would
        evict A's two coldest blocks — its *first two* — leaving a3
        resident but unreachable, because a prefix walk stops at the
        first missing block.  The radix tree evicts leaf-first, so every
        resident block stays reachable from the root by construction.
        """
        a = list(range(12))                  # blocks a1 a2 a3
        b = list(range(100, 112))            # blocks b1 b2 b3
        reachable = lambda c: (c.match_prefix(a) + c.match_prefix(b)) // 4

        radix = RadixPrefixCache(block_size=4, capacity_blocks=4)
        radix.insert(a)
        radix.insert(b)                      # evicts leaves a3, then a2
        assert len(radix) == 4
        assert radix.match_prefix(a) == 4    # a1 survives and still hits
        assert reachable(radix) == 4         # every resident block usable

    def test_all_leaves_pinned_overflows_instead_of_breaking_pins(self):
        cache = RadixPrefixCache(block_size=4, capacity_blocks=4)
        cache.insert(list(range(8)))         # a1 a2
        handle = cache.pin(list(range(8)))
        # Shrink capacity under the pinned trunk (white-box: the same
        # state the scheduler's pin window produces under extreme
        # pressure) and force an eviction pass.
        cache.capacity_blocks = 1
        cache.insert(list(range(50, 54)))    # new leaf is evictable...
        assert len(cache) == 2               # ...pinned trunk is not
        assert cache.match_prefix(list(range(8))) == 8
        cache.unpin(handle)                  # release -> evicts to fit
        assert len(cache) == 1


class TestPinning:
    def test_pin_protects_cold_trunk_under_pressure(self):
        cache = RadixPrefixCache(block_size=4, capacity_blocks=3)
        trunk = list(range(8))
        cache.insert(trunk)
        handle = cache.pin(trunk)
        for base in range(10):               # flood with one-block chains
            cache.insert([1000 + 4 * base + i for i in range(4)])
        assert cache.match_prefix(trunk) == 8
        cache.unpin(handle)
        cache.insert([2000, 2001, 2002, 2003])
        cache.insert([3000, 3001, 3002, 3003])
        assert cache.match_prefix(trunk) < 8  # evictable again

    def test_pin_counts_and_unpin_releases(self):
        cache = RadixPrefixCache(block_size=4)
        tokens = list(range(8))
        cache.insert(tokens)
        first = cache.pin(tokens)
        second = cache.pin(tokens)
        assert cache.snapshot()["pinned_blocks"] == 2
        cache.unpin(first)
        assert cache.snapshot()["pinned_blocks"] == 2  # refcounted
        cache.unpin(second)
        assert cache.snapshot()["pinned_blocks"] == 0

    def test_pin_nonresident_is_empty_and_unpin_noop(self):
        cache = RadixPrefixCache(block_size=4)
        handle = cache.pin(list(range(8)))
        assert handle == ()
        cache.unpin(handle)  # no-op, no raise

    def test_unpin_over_release_raises(self):
        cache = RadixPrefixCache(block_size=4)
        cache.insert(list(range(4)))
        handle = cache.pin(list(range(4)))
        cache.unpin(handle)
        with pytest.raises(ValueError):
            cache.unpin(handle)


class TestRadixProperties:
    @settings(max_examples=60)
    @given(tokens_strategy)
    def test_match_never_exceeds_length_and_is_block_aligned(self, tokens):
        cache = RadixPrefixCache(block_size=8)
        cache.insert(tokens)
        matched = cache.match_prefix(tokens)
        assert 0 <= matched <= len(tokens)
        assert matched % 8 == 0

    @settings(max_examples=60)
    @given(tokens_strategy, tokens_strategy)
    def test_inserting_more_never_reduces_match(self, tokens, extra):
        cache = RadixPrefixCache(block_size=8)
        cache.insert(tokens)
        before = cache.match_prefix(tokens)
        cache.insert(tokens + extra)
        after = cache.match_prefix(tokens)
        assert after >= before

    @settings(max_examples=60)
    @given(tokens_strategy)
    def test_repeat_insert_idempotent(self, tokens):
        cache = RadixPrefixCache(block_size=8)
        first = cache.insert(tokens)
        second = cache.insert(tokens)
        assert second == 0 or first == 0

    @settings(max_examples=80)
    @given(workload_strategy)
    def test_stats_conservation_per_walk(self, workload):
        """Every walk books hits+misses consistently with its return."""
        cache = RadixPrefixCache(block_size=4, capacity_blocks=8)
        for tokens in workload:
            before_hits = cache.stats.block_hits
            before_misses = cache.stats.block_misses
            before_lookups = cache.stats.lookups
            served = cache.lookup_and_insert(tokens)
            complete = len(tokens) // 4
            hits = cache.stats.block_hits - before_hits
            misses = cache.stats.block_misses - before_misses
            assert cache.stats.lookups == before_lookups + 1
            assert served == hits * 4
            assert misses == (1 if hits < complete else 0)
        assert cache.stats.cached_tokens == cache.stats.block_hits * 4

    @settings(max_examples=40)
    @given(workload_strategy)
    def test_resident_blocks_always_reachable(self, workload):
        """The no-orphans invariant under arbitrary eviction pressure."""
        cache = RadixPrefixCache(block_size=4, capacity_blocks=6)
        inserted: list[list[int]] = []
        for tokens in workload:
            cache.insert(tokens)
            inserted.append(list(tokens))
        reachable = set()

        def walk(node, path):
            for block, child in node.children.items():
                reachable.add(id(child))
                walk(child, path + [block])

        walk(cache._root, [])
        assert len(reachable) == len(cache)
