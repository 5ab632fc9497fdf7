"""Microbenchmarks of the substrates (real wall-clock, multiple rounds).

These measure actual Python throughput of the pieces everything else sits
on: the tokenizer, the radix prefix cache, BM25 retrieval, view expansion,
and SPEAR-DL parsing/compilation.
"""

from __future__ import annotations

from repro.core.views import ViewRegistry
from repro.data.clinical import make_clinical_corpus
from repro.dl import compile_source
from repro.llm.radix_cache import RadixPrefixCache
from repro.llm.tokenizer import Tokenizer
from repro.retrieval import InvertedIndex, corpus_documents

_LONG_TEXT = (
    "Summarize the patient's medication history and highlight any use of "
    "Enoxaparin, including dosage, timing, and indication. "
) * 80

_DL_SOURCE = '''
view med_summary(drug) {
  """### Task
Summarize the patient's medication history and highlight any use of {drug}.
Notes:
{initial_notes}"""
  tags: clinical, summary
}
pipeline qa {
  RET["initial_notes", query="p0001"]
  VIEW["med_summary", key="qa", params={drug: "Enoxaparin"}]
  GEN["answer_0", prompt="qa"]
  CHECK[M["confidence"] < 0.7] -> REF[APPEND, "Be specific.", key="qa"]
  GEN["answer_1", prompt="qa"]
}
'''


def test_tokenizer_encode(benchmark):
    tokenizer = Tokenizer()
    ids = benchmark(tokenizer.encode, _LONG_TEXT)
    assert len(ids) > 1000


def test_kv_cache_lookup_insert(benchmark):
    tokenizer = Tokenizer()
    tokens = tokenizer.encode(_LONG_TEXT)
    cache = RadixPrefixCache()
    cache.insert(tokens)

    def probe():
        return cache.lookup_and_insert(tokens)

    cached = benchmark(probe)
    assert cached > 0


def test_bm25_search(benchmark):
    corpus = make_clinical_corpus(100, seed=11)
    index = InvertedIndex(corpus_documents(corpus))
    results = benchmark(
        index.search, "enoxaparin dosage dvt prophylaxis", top_k=5
    )
    assert results


def test_view_expansion_cached(benchmark):
    views = ViewRegistry()
    views.define("base", _LONG_TEXT)
    views.define("child", "Focus on {drug}.", params=("drug",), base="base")
    views.expand("child", {"drug": "Enoxaparin"})  # warm the cache

    text = benchmark(views.expand, "child", {"drug": "Enoxaparin"})
    assert "Enoxaparin" in text


def test_dl_parse_and_compile(benchmark):
    compiled = benchmark(compile_source, _DL_SOURCE)
    assert "qa" in compiled.pipelines
