"""Simulated LLM serving substrate (tokenizer, caches, profiles, model).

Stands in for the paper's vLLM + {Qwen2.5-7B, Mistral-7B, GPT-4o-mini}
stack; see DESIGN.md §2 for the substitution rationale.
"""

from repro.llm.features import PromptFeatures, extract_features
from repro.llm.kv_cache import BlockPrefixCache, CacheStats
from repro.llm.latency import LatencyBreakdown, estimate_latency
from repro.llm.model import GenerationResult, SimulatedLLM
from repro.llm.packing import Fragment, PackResult, pack_fragments
from repro.llm.partitions import CachePartition, CachePartitions
from repro.llm.profiles import DEFAULT_PROFILE, PROFILES, ModelProfile, get_profile
from repro.llm.prompt_cache import PromptCacheKey, StructuredPromptCache, param_hash
from repro.llm.quality import error_rate, noisy_bool
from repro.llm.radix_cache import RadixPrefixCache, shared_prefix_tokens
from repro.llm.tasks import TaskEngine, TaskOutput, route_task
from repro.llm.tokenizer import Tokenizer

__all__ = [
    "PromptFeatures",
    "extract_features",
    "BlockPrefixCache",
    "CacheStats",
    "CachePartition",
    "CachePartitions",
    "RadixPrefixCache",
    "shared_prefix_tokens",
    "LatencyBreakdown",
    "estimate_latency",
    "GenerationResult",
    "Fragment",
    "PackResult",
    "pack_fragments",
    "SimulatedLLM",
    "DEFAULT_PROFILE",
    "PROFILES",
    "ModelProfile",
    "get_profile",
    "PromptCacheKey",
    "StructuredPromptCache",
    "param_hash",
    "error_rate",
    "noisy_bool",
    "TaskEngine",
    "TaskOutput",
    "route_task",
    "Tokenizer",
]
