"""Radix-tree prefix cache, modelled on SGLang RadixAttention.

The model's KV tier.  A prompt's token sequence is split into fixed-size
blocks, and a block is reusable only when the entire prefix before it
matched (vLLM automatic prefix caching's rule, paper ref [16]); the
remaining tokens pay full prefill cost.  The cached prefixes are stored
as a radix tree over token blocks:

- **token-block nodes** — each node is one ``block_size``-token block;
  a root-to-node path is a cached prefix, and divergent suffixes share
  the common trunk up to their branch point (SGLang's RadixAttention
  structure, with the tree edges labelled by whole blocks);
- **leaf-first LRU eviction** — only childless, unpinned nodes are
  eviction candidates (coldest first, by a deterministic use stamp), so
  subtrees are reclaimed bottom-up and every resident block remains
  reachable from the root at all times: no evicted parent can strand
  its descendants;
- **reference-counted pinning** — :meth:`pin` takes the resident trunk
  of a token sequence out of the eviction candidate set until the
  matching :meth:`unpin`; the continuous scheduler pins the trunks of
  admitted-but-unexecuted requests so an earlier step member's insert
  cannot evict a later member's matched prefix mid-step.

:class:`CacheStats` carries the hit/miss accounting — the "Cache Hit
(%)" column of the paper's Table 3 is ``cached_tokens / prompt_tokens``
over all GEN calls.  With no eviction pressure the accounting equals
vLLM's hash-chain scheme call for call, which
``tests/llm/test_kv_cache_reference.py`` pins against a naive
reference model.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = ["CacheStats", "RadixPrefixCache", "shared_prefix_tokens"]

_DEFAULT_BLOCK = 16
_DEFAULT_CAPACITY = 65536  # blocks


@dataclass
class CacheStats:
    """Aggregate accounting across all lookups."""

    lookups: int = 0
    prompt_tokens: int = 0
    cached_tokens: int = 0
    block_hits: int = 0
    block_misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Token-level hit rate (the paper's Cache Hit %)."""
        if self.prompt_tokens == 0:
            return 0.0
        return self.cached_tokens / self.prompt_tokens


def shared_prefix_tokens(
    a: Sequence[int], b: Sequence[int], block_size: int
) -> int:
    """Block-aligned shared-prefix length of two token sequences, in tokens.

    This is the scheduler's trunk-overlap measure: the number of leading
    tokens the two sequences share, rounded down to whole cache blocks
    (only complete blocks are ever cached, so only complete blocks can
    be deduplicated).  Pure and deterministic — admission decisions built
    on it depend on tokenized prompts alone.
    """
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    limit = min(len(a), len(b))
    blocks = 0
    for start in range(0, limit - block_size + 1, block_size):
        end = start + block_size
        if tuple(a[start:end]) != tuple(b[start:end]):
            break
        blocks += 1
    return blocks * block_size


class _RadixNode:
    """One cached token block; a root-to-node path is a cached prefix."""

    __slots__ = ("block", "parent", "children", "pins", "stamp")

    def __init__(
        self, block: tuple[int, ...] | None, parent: "_RadixNode | None"
    ) -> None:
        self.block = block
        self.parent = parent
        self.children: dict[tuple[int, ...], _RadixNode] = {}
        #: reference count of active pins; > 0 exempts from eviction.
        self.pins = 0
        #: deterministic LRU stamp (monotonic use counter, not wall time).
        self.stamp = 0


class RadixPrefixCache:
    """Radix-tree prefix cache with pinning and leaf-first LRU eviction.

    ``match_prefix`` / ``insert`` / ``lookup_and_insert`` serve the
    per-request path, :meth:`pin` / :meth:`unpin` give scheduler trunk
    protection.  Thread-safe under one reentrant lock: lookups, inserts,
    pins, and snapshots from parallel worker lanes are atomic.
    """

    def __init__(
        self,
        block_size: int = _DEFAULT_BLOCK,
        capacity_blocks: int = _DEFAULT_CAPACITY,
    ) -> None:
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        if capacity_blocks < 1:
            raise ValueError(
                f"capacity_blocks must be >= 1, got {capacity_blocks}"
            )
        self.block_size = block_size
        self.capacity_blocks = capacity_blocks
        self._root = _RadixNode(None, None)
        self._size = 0
        self._leaves: set[_RadixNode] = set()
        self._pinned_nodes = 0
        self._tick = 0
        self.stats = CacheStats()
        self._lock = threading.RLock()

    # -- internals -----------------------------------------------------------

    def _blocks(self, tokens: Sequence[int]) -> Iterator[tuple[int, ...]]:
        """Every *complete* block of ``tokens``, in order."""
        size = self.block_size
        for start in range(0, len(tokens) - size + 1, size):
            yield tuple(tokens[start : start + size])

    def _touch(self, node: _RadixNode) -> None:
        self._tick += 1
        node.stamp = self._tick

    def _walk(self, tokens: Sequence[int]) -> list[_RadixNode]:
        """The resident prefix path of ``tokens`` (longest cached trunk)."""
        path: list[_RadixNode] = []
        node = self._root
        for block in self._blocks(tokens):
            child = node.children.get(block)
            if child is None:
                break
            path.append(child)
            node = child
        return path

    def _evict_locked(self) -> None:
        """Reclaim coldest unpinned leaves until within capacity.

        Bottom-up by construction: a node is only a candidate once all
        of its descendants are gone, so the resident set is always a
        rooted subtree — no block is ever stranded unreachable.  When
        every leaf is pinned the cache temporarily overflows rather than
        break a pin.
        """
        while self._size > self.capacity_blocks:
            victim: _RadixNode | None = None
            for leaf in self._leaves:
                if leaf.pins:
                    continue
                if victim is None or leaf.stamp < victim.stamp:
                    victim = leaf
            if victim is None:
                break
            parent = victim.parent
            assert parent is not None and victim.block is not None
            del parent.children[victim.block]
            self._leaves.discard(victim)
            if parent is not self._root and not parent.children:
                self._leaves.add(parent)
            self._size -= 1
            self.stats.evictions += 1

    # -- lookup and insert ---------------------------------------------------

    def match_prefix(self, tokens: Sequence[int]) -> int:
        """Number of leading tokens of ``tokens`` served from cache.

        Walks the tree from the root; stops at the first block with no
        resident node (a block is reusable only when its whole prefix
        matched).  Updates stats and LRU recency on the matched path.
        """
        with self._lock:
            matched = 0
            complete = (len(tokens) // self.block_size) if tokens else 0
            path = self._walk(tokens)
            for node in path:
                self._touch(node)
                matched += 1
                self.stats.block_hits += 1
            if matched < complete:
                self.stats.block_misses += 1
            cached = matched * self.block_size
            self.stats.lookups += 1
            self.stats.prompt_tokens += len(tokens)
            self.stats.cached_tokens += cached
            return cached

    def insert(self, tokens: Sequence[int]) -> int:
        """Cache every complete block of ``tokens``; returns blocks added."""
        with self._lock:
            added = 0
            node = self._root
            for block in self._blocks(tokens):
                child = node.children.get(block)
                if child is None:
                    child = _RadixNode(block, node)
                    node.children[block] = child
                    if node is not self._root:
                        self._leaves.discard(node)
                    self._leaves.add(child)
                    self._size += 1
                    added += 1
                self._touch(child)
                node = child
            self._evict_locked()
            return added

    def lookup_and_insert(self, tokens: Sequence[int]) -> int:
        """The per-request path: match the prefix, then cache the prompt."""
        with self._lock:
            cached = self.match_prefix(tokens)
            self.insert(tokens)
            return cached

    # -- pinning -------------------------------------------------------------

    def pin(self, tokens: Sequence[int]) -> tuple[_RadixNode, ...]:
        """Pin the resident trunk of ``tokens`` against eviction.

        Walks the currently cached prefix path and takes a reference on
        every node along it; returns an opaque handle for :meth:`unpin`.
        Pinned nodes (and, transitively, their ancestors — which cannot
        become leaves while a pinned descendant exists) stay resident no
        matter how cold they go.  Pinning a sequence with no resident
        prefix returns an empty handle; unpinning it is a no-op.
        """
        with self._lock:
            path = self._walk(tokens)
            for node in path:
                if node.pins == 0:
                    self._pinned_nodes += 1
                node.pins += 1
            return tuple(path)

    def unpin(self, handle: tuple[_RadixNode, ...]) -> None:
        """Release a :meth:`pin` reference; over-release raises."""
        with self._lock:
            for node in handle:
                if node.pins <= 0:
                    raise ValueError("unpin without a matching pin")
                node.pins -= 1
                if node.pins == 0:
                    self._pinned_nodes -= 1
            self._evict_locked()

    # -- introspection -------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Point-in-time statistics for gauges and reports (atomic)."""
        with self._lock:
            return {
                "blocks": self._size,
                "capacity_blocks": self.capacity_blocks,
                "block_size": self.block_size,
                "lookups": self.stats.lookups,
                "prompt_tokens": self.stats.prompt_tokens,
                "cached_tokens": self.stats.cached_tokens,
                "block_hits": self.stats.block_hits,
                "block_misses": self.stats.block_misses,
                "evictions": self.stats.evictions,
                "hit_rate": self.stats.hit_rate,
                "nodes": self._size,
                "leaves": len(self._leaves),
                "pinned_blocks": self._pinned_nodes,
            }

    def __len__(self) -> int:
        with self._lock:
            return self._size

    def clear(self) -> None:
        """Drop all cached blocks (pins included) and reset statistics."""
        with self._lock:
            self._root = _RadixNode(None, None)
            self._size = 0
            self._leaves = set()
            self._pinned_nodes = 0
            self._tick = 0
            self.stats = CacheStats()
