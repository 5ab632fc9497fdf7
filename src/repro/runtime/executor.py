"""Pipeline executor: the runtime entry point (paper §6).

The executor wires an :class:`~repro.core.state.ExecutionState` to its
services (model, sources, agents, views), runs pipelines, and exposes the
run artefacts — the event trace, elapsed simulated time, and store
snapshots — as a :class:`RunResult`.  It is a thin, explicit layer:
operators do the work; the executor provides construction convenience,
per-run accounting, and hooks for shadow execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.runtime.clock import VirtualClock
from repro.runtime.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Imported lazily at call time: repro.core.state imports
    # repro.runtime.clock, so a module-level import here would be circular.
    from repro.core.pipeline import Pipeline
    from repro.core.state import ExecutionState
    from repro.core.store import PromptStore
    from repro.runtime.options import RuntimeOptions

__all__ = ["RunResult", "Executor"]


@dataclass
class RunResult:
    """Artefacts of one pipeline execution."""

    state: "ExecutionState"
    elapsed: float
    events: list[Event] = field(default_factory=list)
    #: result-cache activity during this run (hits/misses/invalidations/
    #: saved_seconds deltas); empty when no cache was attached.
    cache: dict[str, float] = field(default_factory=dict)

    @property
    def context(self) -> Mapping[str, Any]:
        """Final context values."""
        return self.state.context.as_dict()

    @property
    def metadata(self) -> Mapping[str, Any]:
        """Final metadata signals."""
        return self.state.metadata.as_dict()

    def output(self, label: str) -> Any:
        """Shorthand for the generation output stored under ``label``."""
        from repro.errors import UnknownContextKeyError

        try:
            return self.state.context[label]
        except UnknownContextKeyError:
            raise UnknownContextKeyError(
                label, available=list(self.state.context.keys())
            ) from None

    @property
    def report(self) -> dict[str, Any]:
        """Shared result protocol: one JSON-ready summary of the run.

        Every runner's result (:class:`RunResult`,
        :class:`~repro.runtime.batch.BatchResult`,
        :class:`~repro.runtime.incremental.LoopReport`) exposes
        ``.output()`` / ``.report`` / ``.cache`` so a serving pool can
        dispatch to any of them uniformly.
        """
        return {
            "runner": "run",
            "elapsed": self.elapsed,
            "events": len(self.events),
            "cache": dict(self.cache),
        }


class Executor:
    """Builds execution states and runs pipelines against them.

    Configure it with ``options=RuntimeOptions(...)``: the model, views,
    clock, collector, result cache and resilience runtime all come from
    that one object.
    """

    def __init__(self, *, options: "RuntimeOptions | None" = None) -> None:
        from repro.runtime.options import RuntimeOptions

        if options is None:
            options = RuntimeOptions()
        self.options = options
        self.model = options.model
        from repro.core.views import ViewRegistry

        self.views = options.views if options.views is not None else ViewRegistry()
        # Share one clock between executor and model so GEN latency is the
        # dominant component of elapsed simulated time, as on real serving.
        if options.clock is not None:
            self.clock = options.clock
        elif self.model is not None and hasattr(self.model, "clock"):
            self.clock = self.model.clock
        else:
            self.clock = VirtualClock()
        #: optional observability collector; every state this executor
        #: builds (or runs) has its event log subscribed, and the model is
        #: attached once, so metrics accrue live without operator changes.
        self.collector = options.collector
        if self.collector is not None and self.model is not None:
            self.collector.attach_model(self.model)
        #: optional operator-level result cache shared by every state this
        #: executor builds or runs; refinement events on their logs drive
        #: version-precise invalidation.
        self.result_cache = options.result_cache
        if self.collector is not None and self.result_cache is not None:
            self.collector.attach_result_cache(self.result_cache)
        #: optional resilience runtime (retries / breakers / fallback)
        #: attached to every state this executor builds or runs.
        self.resilience = options.resilience
        self._sources: dict[str, tuple[Callable[..., Any], bool]] = {}
        self._agents: dict[str, Any] = {}

    def register_source(
        self,
        name: str,
        fn: "Callable[[ExecutionState, Any], Any]",
        *,
        pure: bool = False,
    ) -> None:
        """Make a retrieval source available to every state this builds.

        ``pure=True`` marks the source deterministic and side-effect free,
        which lets the result cache memoize its RET applications.
        """
        self._sources[name] = (fn, pure)

    def register_agent(self, name: str, agent: Any) -> None:
        """Make a delegation agent available to every state this builds."""
        self._agents[name] = agent

    def new_state(
        self,
        *,
        context: Mapping[str, Any] | None = None,
        prompts: "PromptStore | None" = None,
    ) -> "ExecutionState":
        """Build a fresh state wired to this executor's services."""
        from repro.core.context import Context
        from repro.core.state import ExecutionState

        state = ExecutionState(
            prompts=prompts,
            context=Context(context),
            model=self.model,
            views=self.views,
            clock=self.clock,
        )
        for name, (fn, pure) in self._sources.items():
            state.register_source(name, fn, pure=pure)
        for name, agent in self._agents.items():
            state.register_agent(name, agent)
        if self.collector is not None:
            self.collector.subscribe_to(state.events)
        if self.result_cache is not None:
            state.result_cache = self.result_cache
            self.result_cache.subscribe_to(state.events, state.prompts)
        if self.resilience is not None:
            state.resilience = self.resilience
        return state

    def run(
        self,
        pipeline: "Pipeline",
        *,
        items: Any = None,
        options: "RuntimeOptions | None" = None,
        state: "ExecutionState | None" = None,
        context: Mapping[str, Any] | None = None,
        priority: Any = None,
        deadline_s: float | None = None,
    ) -> Any:
        """Execute ``pipeline``; returns the final state plus run artefacts.

        The unified runner signature ``run(pipeline, *, items=None,
        options=None)`` is shared with
        :class:`~repro.runtime.parallel.ParallelBatchRunner` and
        :class:`~repro.runtime.incremental.RefinementLoop` so a serving
        pool can dispatch to any runner the same way:

        - ``items=`` maps the pipeline over a dataset sequentially (one
          forked state per item, bound by
          :func:`~repro.runtime.batch.bind_item`) and returns a
          :class:`~repro.runtime.batch.BatchResult`; without it a single
          run returns a :class:`RunResult` — both expose the shared
          ``.output()`` / ``.report`` / ``.cache`` protocol.  Combined
          with ``state=``, that state is the shared base (prompts, model,
          caches) the per-item forks branch from.
        - ``options=`` overrides this executor's configuration for one
          call (a derived executor with the same sources and agents runs
          it; this executor is not mutated).

        With ``RuntimeOptions(scheduler=True)`` (or a
        :class:`~repro.runtime.scheduler.SchedulerConfig`) the run's
        generation calls route through a single-lane continuous engine;
        ``priority`` / ``deadline_s`` override the options' defaults for
        this run — a :class:`~repro.runtime.incremental.RefinementLoop`
        marks its iterations ``bulk`` so interactive runs sharing the
        engine policy sort ahead of them.  A single lane degenerates to
        per-call engine steps, so outputs stay byte-identical to the
        direct path.
        """
        if options is not None:
            return self._derive(options).run(
                pipeline,
                items=items,
                state=state,
                context=context,
                priority=priority,
                deadline_s=deadline_s,
            )
        if state is not None:
            if self.collector is not None:
                # Externally built states still get observed (idempotent).
                self.collector.subscribe_to(state.events)
            if self.result_cache is not None:
                if state.result_cache is None:
                    state.result_cache = self.result_cache
                self.result_cache.subscribe_to(state.events, state.prompts)
            if self.resilience is not None and state.resilience is None:
                state.resilience = self.resilience
        if items is not None:
            from repro.runtime.batch import BatchRunner

            # items= fans the pipeline out over a dataset; state= (when
            # given) is the shared base carrying prompts/model, forked
            # per item like any batch runner.
            base = state if state is not None else self.new_state(context=context)
            return BatchRunner(base, on_error="collect").run(
                pipeline, items=items
            )
        if state is None:
            state = self.new_state(context=context)
        if self.options.strict:
            self._validate(pipeline, state)
        with self._ledger_scope(state, pipeline=pipeline):
            cache = state.result_cache
            cache_before = cache.snapshot() if cache is not None else None
            started_at = self.clock.now
            event_start = len(state.events)
            engine = self._make_engine(state)
            original_model = state.model
            if engine is not None:
                state.model = engine.open_lane(
                    0,
                    state.clock,
                    priority=(
                        priority if priority is not None else self.options.priority
                    ),
                    deadline_s=(
                        deadline_s
                        if deadline_s is not None
                        else self.options.deadline_s
                    ),
                )
            try:
                final = pipeline.apply(state)
            finally:
                if engine is not None:
                    state.model = original_model
                    engine.close_lane(0)
            if engine is not None:
                if final is not state:
                    final.model = original_model
                from repro.runtime.scheduler import fold_sched_events

                fold_sched_events(final.events, engine)
            cache_delta: dict[str, float] = {}
            if cache is not None and cache_before is not None:
                after = cache.snapshot()
                cache_delta = {
                    key: after[key] - cache_before[key]
                    for key in ("hits", "misses", "invalidations", "saved_seconds")
                }
            return RunResult(
                state=final,
                elapsed=self.clock.now - started_at,
                events=final.events.since(event_start),
                cache=cache_delta,
            )

    def _derive(self, options: "RuntimeOptions") -> "Executor":
        """A sibling executor with ``options`` but this one's wiring.

        Registered sources and agents carry over so a per-call
        ``options=`` override behaves like the same executor, differently
        configured — the serving layer uses this for per-request policy.
        """
        derived = Executor(options=options)
        derived._sources = dict(self._sources)
        derived._agents = dict(self._agents)
        return derived

    def _make_engine(self, state: "ExecutionState") -> Any:
        """A single-lane continuous engine when the scheduler is opted in.

        The sequential Executor stays on the direct model path by
        default (``scheduler=None``); only an explicit ``True`` /
        :class:`~repro.runtime.scheduler.SchedulerConfig` wraps the
        run's model in a one-lane :class:`GenScheduler` — useful when a
        sequential run must share the scheduler's policy semantics
        (priority / deadline accounting, SCHED trace) with parallel
        peers.
        """
        selection = self.options.scheduler
        if selection is None or selection is False or state.model is None:
            return None
        from repro.runtime.scheduler import GenScheduler, SchedulerConfig

        config = (
            selection
            if isinstance(selection, SchedulerConfig)
            else SchedulerConfig()
        )
        registry = self.options.metrics
        if registry is None and self.collector is not None:
            registry = self.collector.registry
        return GenScheduler(state.model, config=config, metrics=registry)

    def _ledger_scope(self, state: "ExecutionState", *, pipeline: "Pipeline"):
        """Ledger context for one run; a no-op without ``ledger_dir``.

        Reentrant per state: a RefinementLoop (or any outer runner) that
        already opened a ledger run around this state keeps owning it —
        every iteration's events land in the same ``runs/<run_id>/``.
        """
        from repro.obs.ledger import describe_options, describe_pipeline, ledger_scope

        registry = None
        if self.collector is not None:
            registry = self.collector.registry
        elif self.options.metrics is not None:
            registry = self.options.metrics
        return ledger_scope(
            self.options,
            state,
            manifest={
                "runner": "Executor",
                "pipeline": describe_pipeline(pipeline),
                "options": describe_options(self.options),
            },
            registry=registry,
            collector=self.collector,
        )

    def _validate(self, pipeline: "Pipeline", state: "ExecutionState") -> None:
        """Strict-mode gate: static-check, count findings, abort on errors.

        Re-checks go through the incremental cache: an unchanged
        (pipeline, state, options) triple costs one content hash.
        """
        from repro.analysis import cached_check_state
        from repro.errors import SpearValidationError

        result = cached_check_state(
            pipeline,
            state,
            runtime={
                "scheduler": self.options.scheduler,
                "priority": self.options.priority,
                "deadline_s": self.options.deadline_s,
            },
            metrics=self.options.metrics,
        )
        if len(result) and self.options.metrics is not None:
            for diagnostic in result:
                self.options.metrics.counter(
                    "spear_check_diagnostics_total",
                    "Diagnostics emitted by strict-mode static checks.",
                    code=diagnostic.code,
                    severity=diagnostic.severity.value,
                ).inc()
        if result.has_errors:
            raise SpearValidationError(result.errors)

    # -- convenience -------------------------------------------------------

    def generate_once(
        self,
        prompt_key: str,
        text: str,
        *,
        label: str = "answer",
        context: Mapping[str, Any] | None = None,
    ) -> RunResult:
        """Create a prompt and run a single GEN over it — the quickstart path."""
        from repro.core.operators import GEN
        from repro.core.pipeline import Pipeline

        state = self.new_state(context=context)
        state.prompts.create(prompt_key, text)
        return self.run(Pipeline([GEN(label, prompt=prompt_key)]), state=state)
