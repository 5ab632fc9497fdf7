"""SPEAR: Structured Prompt Execution and Adaptive Refinement.

A full reproduction of "Making Prompts First-Class Citizens for Adaptive
LLM Pipelines" (CIDR 2026): the prompt-as-data model, the (P, C, M)
algebra, structured prompt management (views, histories, meta prompts),
the optimizer (fusion, prefix caching, cost-based refinement planning),
the SPEAR-DL declarative language, and the §7 experiments — on a
deterministic simulated LLM serving substrate.

The package root re-exports the stable facade :mod:`repro.api`; both
carry the same ``__all__``.

Quickstart::

    from repro import ExecutionState, GEN, SimulatedLLM

    llm = SimulatedLLM()
    state = ExecutionState(model=llm)
    state.prompts.create(
        "hello", "Summarize the tweet in at most 30 words.\\nTweet:\\ngreat day"
    )
    state = GEN("answer", prompt="hello").apply(state)
    print(state.C["answer"])
"""

from repro.api import *  # noqa: F403 - the package root is the facade
from repro.api import __all__  # noqa: F401

__version__ = "0.1.0"
