"""Per-tenant serving sessions: isolated warm runtimes.

A :class:`TenantSession` is the unit of isolation in the serving layer.
It owns everything a tenant's pipelines touch — virtual clock, simulated
model grounded on the server's corpora, prompt store, operator result
cache, and a private KV/prompt cache partition — so two tenants can
never share cache state, observe each other's prompts, or perturb each
other's clocks.  A session executes one request at a time (session
affinity: the server's workers serialize on the session lock), which
also keeps every tenant's event stream totally ordered and its outputs
byte-identical to a standalone run of the same pipeline.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.resilience import CircuitBreaker, ShedPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import Pipeline
    from repro.llm.partitions import CachePartitions
    from repro.serve.server import ServeRequest

__all__ = ["TenantConfig", "TenantSession"]


@dataclass(frozen=True)
class TenantConfig:
    """Declarative per-tenant serving configuration.

    Every field except ``name`` is optional; None inherits the server's
    default.  The config is pure data — sessions are built from it by
    the server, so a config can be logged, diffed, and replayed.
    """

    #: tenant identity; also the cache-partition namespace and the
    #: per-tenant ledger subdirectory name.
    name: str
    #: model profile override (e.g. ``"gpt-4o-mini"`` for a budget tier).
    profile: str | None = None
    #: default priority class for this tenant's requests.
    priority: Any = None
    #: default admission deadline (virtual seconds) for requests.
    deadline_s: float | None = None
    #: admission-control override; None inherits the server's policy.
    shed: ShedPolicy | None = None
    #: attach an operator-level result cache to the session.
    result_cache: bool = True
    #: warm prefix (KV) caching inside the tenant's partition.
    enable_prefix_cache: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("TenantConfig.name must be non-empty")


class TenantSession:
    """One tenant's warm runtime inside the serving pool.

    Built lazily by :class:`~repro.serve.server.SpearServer` on the
    tenant's first request and kept warm for the server's lifetime: the
    virtual clock, model, prompt store, result cache, and cache
    partition persist across requests, so a tenant's later requests see
    its own warm caches — and only its own.
    """

    def __init__(
        self,
        config: TenantConfig,
        *,
        profile: str,
        binder: "Callable[[Any], None] | None",
        partitions: "CachePartitions",
        scheduler: Any,
        shed: ShedPolicy,
        ledger_root: "str | Path | None" = None,
    ) -> None:
        from repro.llm.model import SimulatedLLM
        from repro.runtime.clock import VirtualClock
        from repro.runtime.executor import Executor
        from repro.runtime.options import RuntimeOptions
        from repro.runtime.result_cache import ResultCache

        self.config = config
        self.shed = config.shed if config.shed is not None else shed
        clock = VirtualClock()
        partition = partitions.get(config.name)
        self.partition = partition
        self.model = SimulatedLLM(
            config.profile or profile,
            clock=clock,
            kv_cache=partition.kv_cache,
            prompt_cache=partition.prompt_cache,
            enable_prefix_cache=config.enable_prefix_cache,
        )
        if binder is not None:
            binder(self.model)
        ledger_dir = (
            str(Path(ledger_root) / config.name)
            if ledger_root is not None
            else None
        )
        self.executor = Executor(
            options=RuntimeOptions(
                model=self.model,
                clock=clock,
                result_cache=ResultCache() if config.result_cache else None,
                scheduler=scheduler,
                ledger_dir=ledger_dir,
            )
        )
        #: the session's base state: owns the tenant's prompt store; every
        #: request runs on a fork so request context never accumulates.
        self.state = self.executor.new_state()
        self.clock = clock
        #: session affinity: the server's workers serialize requests here.
        self.lock = threading.Lock()
        #: admission bookkeeping, guarded by the server's admission lock.
        self.pending = 0
        self.completed = 0
        self.shed_count = 0
        self.breaker = (
            CircuitBreaker(self.shed.breaker)
            if self.shed.breaker is not None
            else None
        )

    # -- admission (called under the server's admission lock) --------------

    def admit(self) -> "tuple[bool, str | None]":
        """One admission decision: (admitted, shed_reason)."""
        now = self.clock.now
        if self.breaker is not None and not self.breaker.allow(now):
            self.shed_count += 1
            return False, "breaker_open"
        if self.pending >= self.shed.queue_limit:
            if self.breaker is not None:
                self.breaker.record_failure(now)
            self.shed_count += 1
            return False, "queue_full"
        self.pending += 1
        return True, None

    # -- execution ----------------------------------------------------------

    def _ensure_prompts(self, prompts: Mapping[str, str]) -> None:
        for key, text in prompts.items():
            if key not in self.state.prompts:
                self.state.prompts.create(key, text)

    def execute(
        self,
        request: "ServeRequest",
        pipeline: "Pipeline",
        prompts: Mapping[str, str],
    ) -> Any:
        """Run one admitted request; returns the runner result.

        Single-shot requests return a
        :class:`~repro.runtime.executor.RunResult`; requests with
        ``items`` return a :class:`~repro.runtime.batch.BatchResult` —
        both satisfy the shared ``.output()`` / ``.report`` / ``.cache``
        protocol.  The whole request is one ledger run under the
        tenant's ledger root (manifest keyed by tenant and request id);
        the executor's inner per-run scope is reentrant and defers.

        The session's event log holds only the in-flight request: once
        the request ends (ok or raised) its events are dropped from the
        log, so a long-lived tenant's memory and per-request cost stay
        flat.  They remain on ``RunResult.events``, in the ledger run,
        and with every live subscriber (collector, result cache).
        """
        from repro.obs.ledger import describe_pipeline, ledger_scope

        with self.lock:
            try:
                self._ensure_prompts(prompts)
                state = self.state.fork()
                if request.context:
                    for key, value in request.context.items():
                        state.context.put(str(key), value, producer="serve")
                priority = (
                    request.priority
                    if request.priority is not None
                    else self.config.priority
                )
                deadline_s = (
                    request.deadline_s
                    if request.deadline_s is not None
                    else self.config.deadline_s
                )
                manifest = {
                    "runner": "SpearServer",
                    "tenant": self.config.name,
                    "request_id": request.request_id,
                    "pipeline": describe_pipeline(pipeline),
                }
                with ledger_scope(
                    self.executor.options, state, manifest=manifest
                ):
                    result = self.executor.run(
                        pipeline,
                        items=request.items,
                        state=state,
                        priority=priority,
                        deadline_s=deadline_s,
                    )
                self.completed += 1
                return result
            finally:
                # clear() keeps ``seq`` and the subscribers, so sequence
                # numbers stay unique per session.
                self.state.events.clear()

    def snapshot(self) -> dict[str, Any]:
        """Point-in-time session accounting (admission + runtime)."""
        return {
            "tenant": self.config.name,
            "pending": self.pending,
            "completed": self.completed,
            "shed": self.shed_count,
            "clock": self.clock.now,
            "model": self.model.snapshot(),
            "breaker": (
                self.breaker.snapshot(self.clock.now)
                if self.breaker is not None
                else None
            ),
        }
