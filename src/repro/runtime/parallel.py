"""Concurrent batch execution on the continuous-batching GEN engine.

The paper's runtime (§6) sits on a vLLM-style serving stack: many
per-item pipelines run concurrently and their generation calls are
batched into shared engine steps.  :class:`ParallelBatchRunner` is that
engine for the reproduction:

- items are assigned **round-robin** to ``workers`` lanes (lane ``i``
  runs items ``i, i+W, i+2W, …``), so the item→lane mapping is a pure
  function of the workload, independent of thread timing;
- each lane is a real thread with its **own virtual clock** (spawned
  from a :class:`~repro.runtime.clock.LaneClockGroup`) and its own
  private event log, so span brackets never interleave across threads;
- generation calls route through the event-driven
  :class:`~repro.runtime.scheduler.GenScheduler`: batches form on
  token-budget and virtual-clock timeout watermarks, a priority-class +
  deadline policy orders admission
  (``RuntimeOptions(scheduler=…, priority=…, deadline_s=…)``), and each
  lane's clock advances to its *own* completion instead of the
  slowest peer's — continuous flow, not a barrier.
- admission is **prefix-aware**: requests whose tokenized prompts share
  a structured-prompt trunk (``SchedulerConfig.prefix_group_blocks``
  leading cache blocks) are grouped into the same engine step, their
  trunks are pinned in the radix prefix cache for the step's duration,
  and the shared trunk's prefill is charged once per step rather than
  once per request (``SchedulerConfig.prefix_dedup``).

Determinism: item outputs are produced by the model's deterministic task
engine from the prompt alone, engine-step composition is a pure function
of the workload's virtual-clock state (quiescence admission, see
:mod:`repro.runtime.scheduler`), and item→lane assignment is static — so
per-item outputs are identical to the sequential
:class:`~repro.runtime.batch.BatchRunner`'s, run after run.

After the run, each lane's event stream is folded into the base state's
log bracketed by ``LANE[i]`` spans, the engine's step trace is folded as
``SCHED`` events, a ``BATCH`` summary event is recorded, and the base
clock is advanced to the merged lane time.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.runtime.batch import (
    BatchResult,
    bind_item,
    collect_item_result,
    emit_batch_event,
)
from repro.runtime.clock import LaneClockGroup
from repro.runtime.events import EventKind, EventLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import Pipeline
    from repro.core.state import ExecutionState
    from repro.runtime.options import RuntimeOptions
    from repro.runtime.scheduler import GenScheduler

__all__ = ["ParallelBatchRunner"]


def _per_item(value: Any, item: Any) -> Any:
    """Resolve a per-item scheduling attribute (constant or callable)."""
    return value(item) if callable(value) else value


class ParallelBatchRunner:
    """Runs a pipeline over items on concurrent worker lanes.

    Drop-in for :class:`~repro.runtime.batch.BatchRunner` with the same
    ``bind`` / ``on_error`` contract plus:

    Args:
        workers: number of worker lanes (threads).  The effective lane
            count is ``min(workers, len(items))``.
        options: shared :class:`~repro.runtime.options.RuntimeOptions`;
            its ``scheduler`` tunes the continuous
            :class:`~repro.runtime.scheduler.GenScheduler` (a
            :class:`~repro.runtime.scheduler.SchedulerConfig` sets the
            watermark/token-budget policy and the per-step cap
            ``max_batch``; ``SchedulerConfig(max_batch=1)`` gives every
            call its own engine step — lane overlap without batched
            prefill/decode sharing; ``None``/``True`` use the defaults,
            and ``False`` raises :class:`TypeError`), its ``priority`` /
            ``deadline_s`` set per-item scheduling attributes (constants
            or callables ``item -> value``), its ``metrics`` instruments
            lanes/queues/engine steps, its ``result_cache`` and
            ``resilience`` are attached to the base state when that
            state has none (per-lane breaker state is shared safely:
            forked item states carry the same runtime).
        isolate_prompts: fork items with private prompt stores (see
            :meth:`ExecutionState.fork`); use when the pipeline refines
            prompts per item and lanes must not observe each other.
    """

    def __init__(
        self,
        base_state: "ExecutionState",
        *,
        bind: "Callable[[ExecutionState, Any], None] | None" = None,
        on_error: str = "raise",
        workers: int = 4,
        options: "RuntimeOptions | None" = None,
        isolate_prompts: bool = False,
    ) -> None:
        if on_error not in ("raise", "collect"):
            raise ValueError(f"on_error must be 'raise' or 'collect': {on_error!r}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        from repro.runtime.options import RuntimeOptions
        from repro.runtime.scheduler import resolve_scheduler_config

        if options is None:
            options = RuntimeOptions()
        if options.scheduler is False:
            raise TypeError(
                "ParallelBatchRunner always runs the continuous GenScheduler; "
                "for one request per engine step pass "
                "options=RuntimeOptions(scheduler=SchedulerConfig(max_batch=1))"
            )
        self.scheduler_config = resolve_scheduler_config(options.scheduler)
        self.options = options
        self.base_state = base_state
        if bind is None:
            bind = bind_item
        if options.result_cache is not None and base_state.result_cache is None:
            base_state.result_cache = options.result_cache
            options.result_cache.subscribe_to(
                base_state.events, base_state.prompts
            )
        if options.resilience is not None and base_state.resilience is None:
            base_state.resilience = options.resilience
        self.bind = bind
        self.on_error = on_error
        self.workers = workers
        self.metrics = options.metrics
        self.isolate_prompts = isolate_prompts
        #: the :class:`~repro.runtime.scheduler.GenScheduler` of the most
        #: recent run (introspection/tests).
        self.last_batcher: "GenScheduler | None" = None

    # -- the run --------------------------------------------------------------

    def _validate(self, pipeline: "Pipeline") -> None:
        """Strict-mode gate against the base state, before any lane starts.

        ``open_context=True``: the ``bind`` callback populates per-item
        context at runtime, so missing-context findings are unknowable
        here and suppressed.  The runtime mapping carries the runner's
        concurrency shape (``lanes``/``shared_prompts``) so the
        interference analyzers (SPEAR161/163) see the batch the way it
        will actually run; re-checks go through the incremental cache.
        """
        from repro.analysis import cached_check_state
        from repro.errors import SpearValidationError

        # The parallel runner always runs the continuous scheduler, even
        # when options.scheduler is None.
        result = cached_check_state(
            pipeline,
            self.base_state,
            open_context=True,
            runtime={
                "scheduler": True,
                "priority": self.options.priority,
                "deadline_s": self.options.deadline_s,
                "lanes": self.workers,
                "shared_prompts": not self.isolate_prompts,
            },
            metrics=self.metrics,
        )
        if len(result) and self.metrics is not None:
            for diagnostic in result:
                self.metrics.counter(
                    "spear_check_diagnostics_total",
                    "Diagnostics emitted by strict-mode static checks.",
                    code=diagnostic.code,
                    severity=diagnostic.severity.value,
                ).inc()
        if result.has_errors:
            raise SpearValidationError(result.errors)

    def run(
        self,
        pipeline: "Pipeline",
        *,
        items: "Iterable[Any] | Sequence[Any] | None" = None,
        options: "RuntimeOptions | None" = None,
    ) -> BatchResult:
        """Execute ``pipeline`` once per item across the worker lanes.

        The unified runner signature: pass the dataset as ``items=``, and
        optionally a per-call ``options=`` override (a sibling runner with
        the same lanes/binding runs the batch; this runner is not
        mutated).

        With ``RuntimeOptions(ledger_dir=...)`` the whole batch is one
        ledger run on the base state; lane events land in it when they
        are folded back at completion.
        """
        if items is None:
            items = []
        if options is not None:
            sibling = ParallelBatchRunner(
                self.base_state,
                bind=self.bind,
                on_error=self.on_error,
                workers=self.workers,
                options=options,
                isolate_prompts=self.isolate_prompts,
            )
            batch = sibling.run(pipeline, items=items)
            self.last_batcher = sibling.last_batcher
            return batch
        from repro.obs.ledger import describe_options, describe_pipeline, ledger_scope

        with ledger_scope(
            self.options,
            self.base_state,
            manifest={
                "runner": "ParallelBatchRunner",
                "pipeline": describe_pipeline(pipeline),
                "workers": self.workers,
                "options": describe_options(self.options),
            },
            registry=self.metrics,
            collector=self.options.collector,
        ):
            return self._run_batch(pipeline, items)

    def _run_batch(
        self, pipeline: "Pipeline", items: "Iterable[Any] | Sequence[Any]"
    ) -> BatchResult:
        if self.options.strict:
            self._validate(pipeline)
        items = list(items)
        if not items:
            batch = BatchResult(workers=0)
            emit_batch_event(
                self.base_state, batch, mode="parallel",
                runner="ParallelBatchRunner",
            )
            return batch

        lanes = min(self.workers, len(items))
        base = self.base_state
        clock_group = LaneClockGroup(base.clock.now)
        lane_clocks = [clock_group.spawn() for _ in range(lanes)]
        lane_logs = [EventLog() for _ in range(lanes)]

        cache = base.result_cache
        cache_before = cache.snapshot() if cache is not None else None
        if cache is not None and not self.isolate_prompts:
            # Lane refinements of the *shared* store must invalidate live;
            # with isolated per-item stores the fold-back path suffices
            # (the cache's store-bound guard rejects clone versions).
            for lane_log in lane_logs:
                cache.subscribe_to(lane_log, base.prompts)

        engine = self._make_batcher()
        lane_models: list[Any] = [
            engine.open_lane(lane_id, lane_clocks[lane_id])
            if engine is not None
            else base.model
            for lane_id in range(lanes)
        ]

        results: list[Any] = [None] * len(items)
        errors: list[tuple[int, Exception]] = []
        errors_lock = threading.Lock()
        stop = threading.Event()

        def lane_worker(lane_id: int) -> None:
            # Everything — including this setup — runs under the finally
            # that closes the lane: a lane that dies between open_lane
            # and its first submit must still shrink the admission set,
            # or peers would wait forever on its pending call.
            try:
                lane_clock = lane_clocks[lane_id]
                lane_log = lane_logs[lane_id]
                lane_model = lane_models[lane_id]
                for index in range(lane_id, len(items), lanes):
                    if stop.is_set():
                        break
                    item = items[index]
                    if engine is not None:
                        engine.configure_lane(
                            lane_id,
                            priority=_per_item(self.options.priority, item),
                            deadline_s=_per_item(self.options.deadline_s, item),
                        )
                    item_state = base.fork(
                        share_prompts=not self.isolate_prompts
                    )
                    item_state.clock = lane_clock
                    item_state.events = lane_log
                    item_state.model = lane_model
                    item_start = lane_clock.now
                    error: Exception | None = None
                    try:
                        # bind runs inside the error policy, matching the
                        # sequential runner.
                        self.bind(item_state, item)
                        item_state = pipeline.apply(item_state)
                    except Exception as exc:  # noqa: BLE001 - routed by policy
                        error = exc
                        if self.on_error == "raise":
                            with errors_lock:
                                errors.append((index, exc))
                            stop.set()
                            break
                    results[index] = collect_item_result(
                        item, item_state, lane_clock.now - item_start, error
                    )
            except Exception as exc:  # noqa: BLE001 - lane infrastructure failure
                with errors_lock:
                    errors.append((-1, exc))
                stop.set()
            finally:
                # Always shrink the admission set, or peers would wait
                # forever on this lane's next call.
                if engine is not None:
                    engine.close_lane(lane_id)

        threads = [
            threading.Thread(
                target=lane_worker, args=(lane_id,),
                name=f"spear-lane-{lane_id}", daemon=True,
            )
            for lane_id in range(lanes)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        if errors and self.on_error == "raise":
            errors.sort(key=lambda pair: pair[0])
            raise errors[0][1]

        batch = BatchResult(
            items=[result for result in results if result is not None],
            elapsed=clock_group.elapsed,
            workers=lanes,
        )

        self._fold_lane_events(lane_logs, lane_clocks, clock_group)
        if engine is not None:
            from repro.runtime.scheduler import fold_sched_events

            fold_sched_events(self.base_state.events, engine)
        # Later sequential work continues after the batch completed.
        base.clock.advance_to(clock_group.now)
        self._observe(batch, clock_group)

        extra: dict[str, Any] = {
            "serialized_elapsed": clock_group.serialized_elapsed,
        }
        if cache is not None and cache_before is not None:
            after = cache.snapshot()
            batch.cache = {
                key: after[key] - cache_before[key]
                for key in ("hits", "misses", "invalidations", "saved_seconds")
            }
            extra.update(
                result_cache_hits=int(after["hits"] - cache_before["hits"]),
                result_cache_misses=int(
                    after["misses"] - cache_before["misses"]
                ),
                result_cache_saved_seconds=(
                    after["saved_seconds"] - cache_before["saved_seconds"]
                ),
            )
        if engine is not None:
            stats = engine.snapshot()
            extra.update(
                gen_batches=int(stats["flushes"]),
                batched_calls=int(stats["batched_calls"]),
                largest_batch=int(stats["largest_batch"]),
                mean_batch_size=stats["mean_batch_size"],
                sched_steps=int(stats["steps"]),
                sched_preemptions=int(stats["preemptions"]),
                sched_forced=int(stats["forced"]),
                sched_mean_wait=stats["mean_wait"],
            )
        emit_batch_event(
            base, batch, mode="parallel", runner="ParallelBatchRunner",
            extra=extra,
        )
        return batch

    # -- helpers --------------------------------------------------------------

    def _make_batcher(self) -> "GenScheduler | None":
        """A fresh generation engine per run (lane registration is per-run).

        Always the continuous
        :class:`~repro.runtime.scheduler.GenScheduler`, configured by
        ``options.scheduler``; None when the base state has no model.
        """
        engine = None
        if self.base_state.model is not None:
            from repro.runtime.scheduler import GenScheduler

            engine = GenScheduler(
                self.base_state.model,
                config=self.scheduler_config,
                metrics=self.metrics,
            )
        self.last_batcher = engine
        return engine

    def _fold_lane_events(
        self,
        lane_logs: list[EventLog],
        lane_clocks: list[Any],
        clock_group: LaneClockGroup,
    ) -> None:
        """Replay each lane's private log into the base log as a LANE span.

        Lane streams are appended whole, one lane after another, so span
        nesting stays well-formed (each lane's events are already a
        well-bracketed sequence on its own clock).
        """
        events = self.base_state.events
        for lane_id, lane_log in enumerate(lane_logs):
            events.record(
                EventKind.OPERATOR_START,
                f"LANE[{lane_id}]",
                at=clock_group.start,
            )
            events.extend(lane_log.all())
            events.record(
                EventKind.OPERATOR_END,
                f"LANE[{lane_id}]",
                at=lane_clocks[lane_id].now,
            )

    def _observe(self, batch: BatchResult, clock_group: LaneClockGroup) -> None:
        if self.metrics is None:
            return
        self.metrics.gauge(
            "spear_batch_workers", "Lanes used by the last batch run.",
            mode="parallel",
        ).set(float(batch.workers))
        lane_hist = self.metrics.histogram(
            "spear_lane_elapsed_seconds",
            "Per-lane simulated elapsed time of a parallel batch run.",
        )
        for lane in clock_group.lanes:
            lane_hist.observe(lane.now - clock_group.start)
