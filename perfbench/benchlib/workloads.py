"""The three seeded workloads: inputs, set-up, measured work, gates.

Each workload turns ``--seed`` into inputs (the program sees only those),
builds the system cold, runs it, and compares every output with a
reference run made a simpler way.  A repetition returns a :class:`Rep`;
the measurement loop in :mod:`benchlib.measure` turns repetitions into
metrics.
"""

from __future__ import annotations

import functools
import json
import math
import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import repro.dl as dl
from repro.analysis import cached_check_state
from repro.analysis.cache import GLOBAL_CHECK_CACHE
from repro.core import GEN, REF, FunctionOperator, Pipeline
from repro.core.state import ExecutionState
from repro.data import make_tweet_corpus
from repro.errors import RateLimitError, SpearValidationError
from repro.experiments.common import (
    FILTER_NEG_INSTRUCTION,
    MAP_INSTRUCTION,
    SCAFFOLD,
)
from repro.llm.model import SimulatedLLM
from repro.obs import ObsCollector
from repro.resilience import ShedPolicy
from repro.runtime.batch import BatchRunner
from repro.runtime.executor import Executor
from repro.runtime.incremental import RefinementLoop
from repro.runtime.options import RuntimeOptions
from repro.runtime.parallel import ParallelBatchRunner
from repro.runtime.result_cache import ResultCache
from repro.serve import ServeRequest, SpearServer

PROFILE = "qwen2.5-7b-instruct"

#: serve-skewed: worker threads (the core count of the 2-core host the
#: benchmark was sized on), open-loop rate in req/s, share of the run
#: spent in the open loop, backlog requests per second of run, and the
#: bursts the backlog is submitted in.
SERVE_WORKERS = 2
SERVE_RATE = 100.0
SERVE_OPEN_SHARE = 0.9
SERVE_BACKLOG_PER_S = 30.0
SERVE_DRAIN_CHUNKS = 5

MAP_PROMPT = SCAFFOLD + "\n" + MAP_INSTRUCTION + "\nTweet:\n{tweet}"
FILTER_PROMPT = SCAFFOLD + "\n" + FILTER_NEG_INSTRUCTION + "\nTweet:\n{tweet}"
SERVE_PROMPTS = {"map_p": MAP_PROMPT, "filter_p": FILTER_PROMPT}

#: The Table-3 Map→Filter pipeline and its 1-GEN prefix, in SPEAR-DL.
DL_SOURCE = """\
pipeline summarize {
  GEN["summary", prompt="map_p"]
}

pipeline summarize_filter {
  GEN["summary", prompt="map_p"]
  GEN["neg", prompt="filter_p"]
}
"""

ENRICH_INSTRUCTION = (
    "List the key topics and entities the tweet mentions, one per line."
)
DIGEST_INSTRUCTION = (
    "Condense the summary above into a single factual takeaway sentence."
)
#: One focus hint appended to ``filter_p`` at each iteration boundary.
REFINEMENT_HINTS = (
    "Focus on school-related content such as classes and exams.",
    "Also count complaints about teachers and homework as school-related.",
    "Ignore sarcasm-free positive mentions of school events.",
    "Treat exam-stress venting as negative school content.",
)


def says_yes(verdict: Any) -> bool:
    """Parse a filter verdict such as ``"Label: yes"``."""
    return str(verdict).strip().lower().endswith("yes")


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-int(q * 1000) * len(ordered) // 1000))
    return ordered[min(len(ordered), rank) - 1]


def median(values: list[float]) -> float:
    return quantile(values, 0.5)


@dataclass
class Rep:
    """One repetition: a cold set-up followed by the measured work."""

    setup_s: float
    run_s: float
    #: units of work completed (items, item-iterations, requests).
    units: int
    #: host latency of each unit, milliseconds.
    latencies_ms: list[float]
    sim_s: float
    accuracy: float
    #: units whose output differs from the reference.
    failed: int
    #: exact counts read from the program after the run (trace only).
    counts: dict[str, float] = field(default_factory=dict)


def _llm_counts(models: list[SimulatedLLM]) -> dict[str, float]:
    snaps = [model.snapshot() for model in models]
    prompt = sum(s["total_prompt_tokens"] for s in snaps)
    cached = sum(s["total_cached_tokens"] for s in snaps)
    return {
        "llm.gen_calls": sum(s["calls"] for s in snaps),
        "llm.prompt_tokens": prompt,
        "llm.cached_tokens": cached,
        "llm.kv_hit_ratio": cached / prompt if prompt else 0.0,
    }


def _result_cache_counts(caches: list[ResultCache]) -> dict[str, float]:
    snaps = [cache.snapshot() for cache in caches]
    hits = sum(s["hits"] for s in snaps)
    misses = sum(s["misses"] for s in snaps)
    return {
        "result_cache.hits": hits,
        "result_cache.misses": misses,
        "result_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "result_cache.invalidations": sum(s["invalidations"] for s in snaps),
    }


class _CheckCacheWindow:
    """Hits and misses of the process-wide check cache over a window."""

    def __init__(self) -> None:
        self.hits = GLOBAL_CHECK_CACHE.hits
        self.misses = GLOBAL_CHECK_CACHE.misses

    def counts(self) -> dict[str, float]:
        hits = GLOBAL_CHECK_CACHE.hits - self.hits
        lookups = hits + GLOBAL_CHECK_CACHE.misses - self.misses
        return {
            "analysis.lookups": lookups,
            "analysis.cache_hit_ratio": hits / lookups if lookups else 0.0,
        }


def cold_start() -> None:
    """Forget process-wide check results, as a fresh process would."""
    GLOBAL_CHECK_CACHE.clear()


# -- table3-batch -------------------------------------------------------------


class ItemTimedPipeline(Pipeline):
    """A pipeline that records the host duration of every application."""

    def __init__(self, operators: Any, *, name: str | None = None) -> None:
        super().__init__(operators, name=name)
        self.seconds: list[float] = []

    def apply(self, state: ExecutionState) -> ExecutionState:
        start = time.perf_counter()
        try:
            return super().apply(state)
        finally:
            self.seconds.append(time.perf_counter() - start)


class Table3Batch:
    """Map→Filter over seeded tweets on 16 lanes, cold caches each rep."""

    name = "table3-batch"

    def __init__(self, items: int = 1000, lanes: int = 16) -> None:
        self.items = items
        self.lanes = lanes
        #: the runtime mapping the parallel runner's strict gate checks.
        self.runtime = {
            "scheduler": True,
            "priority": None,
            "deadline_s": None,
            "lanes": lanes,
            "shared_prompts": True,
        }

    def inputs(self, seed: int, seconds: float) -> Any:
        return make_tweet_corpus(self.items, seed=seed)

    def setup(
        self, corpus: Any, workdir: Path | None = None
    ) -> tuple[ExecutionState, ItemTimedPipeline]:
        cold_start()
        llm = SimulatedLLM(PROFILE)
        llm.bind_tweets(corpus)
        state = ExecutionState(model=llm, clock=llm.clock)
        state.prompts.create("map_p", MAP_PROMPT)
        state.prompts.create("filter_p", FILTER_PROMPT)
        program = dl.compile_source(DL_SOURCE, filename="table3.spear")
        pipeline = ItemTimedPipeline(
            program.pipeline("summarize_filter").operators, name="table3"
        )
        check = cached_check_state(
            pipeline, state, open_context=True, runtime=self.runtime
        )
        if check.has_errors:
            raise SpearValidationError(check.errors)
        return state, pipeline

    @staticmethod
    def _bind(tracer: Any):
        def bind(state: ExecutionState, tweet: Any) -> None:
            if tracer is not None:
                tracer.bind_unit(tweet.uid)
            state.context.put("tweet", tweet.text, producer="bind")

        return bind

    @staticmethod
    def _outputs(batch: Any) -> list[tuple[Any, Any]]:
        return [
            (item.context.get("summary"), item.context.get("neg"))
            for item in batch.items
        ]

    def reference(self, corpus: Any) -> dict[str, Any]:
        """Sequential BatchRunner run of the same items (timed, for the ratio)."""
        state, pipeline = self.setup(corpus)
        start = time.perf_counter()
        batch = BatchRunner(state, bind=self._bind(None)).run(
            pipeline, items=list(corpus)
        )
        return {
            "outputs": self._outputs(batch),
            "run_s": time.perf_counter() - start,
        }

    def rep(
        self, corpus: Any, reference: dict[str, Any], tracer: Any, workdir: Path
    ) -> Rep:
        started = time.perf_counter()
        window = _CheckCacheWindow()
        state, pipeline = self.setup(corpus)
        setup_done = time.perf_counter()
        runner = ParallelBatchRunner(
            state,
            bind=self._bind(tracer),
            workers=self.lanes,
            options=RuntimeOptions(strict=True),
        )
        batch = runner.run(pipeline, items=list(corpus))
        finished = time.perf_counter()

        outputs = self._outputs(batch)
        expected = reference["outputs"]
        failed = sum(1 for got, want in zip(outputs, expected) if got != want)
        failed += abs(len(expected) - len(outputs))
        correct = sum(
            1
            for (_summary, neg), tweet in zip(outputs, corpus)
            if says_yes(neg) == tweet.is_negative
        )
        counts: dict[str, float] = {}
        if tracer is not None:
            steps = runner.last_batcher.steps
            waits = [member.wait for step in steps for member in step.members]
            counts = {
                **_llm_counts([state.model]),
                **window.counts(),
                "scheduler.steps": len(steps),
                "scheduler.mean_step_size": (
                    len(waits) / len(steps) if steps else 0.0
                ),
                "scheduler.sim_wait_p50_s": quantile(waits, 0.50),
                "scheduler.sim_wait_p99_s": quantile(waits, 0.99),
            }
        return Rep(
            setup_s=setup_done - started,
            run_s=finished - setup_done,
            units=len(outputs),
            latencies_ms=[s * 1e3 for s in pipeline.seconds],
            sim_s=batch.elapsed,
            accuracy=correct / len(corpus),
            failed=failed,
            counts=counts,
        )

    def extra_metrics(self, reps: list[Rep], reference: dict[str, Any]) -> dict:
        return {
            "parallel.host_vs_sequential": median([r.run_s for r in reps])
            / reference["run_s"],
        }


# -- refine-loop ----------------------------------------------------------------


class _LoopRecorder:
    """Bind operators that time each item-iteration and keep its outputs.

    The loop runs one long pipeline per iteration (bind, Map, Enrich,
    Digest, Filter per item).  Each bind first records the outputs the
    previous item left in the context, then binds its own tweet, so the
    gap between consecutive binds is one item-iteration's host time.
    """

    LABELS = ("summary", "keywords", "takeaway", "verdict")

    def __init__(self, items: int, tracer: Any) -> None:
        self.items = items
        self.tracer = tracer
        self.marks: list[float] = []
        self.outputs: list[tuple[Any, ...]] = []

    def snapshot(self, state: ExecutionState) -> None:
        self.outputs.append(
            tuple(state.context.get(label) for label in self.LABELS)
        )

    def bind(self, index: int, text: str) -> FunctionOperator:
        def bind(state: ExecutionState) -> ExecutionState:
            if self.marks:
                self.snapshot(state)
            if self.tracer is not None:
                self.tracer.bind_unit(f"{len(self.marks) // self.items}:{index}")
            self.marks.append(time.perf_counter())
            state.context.put("tweet", text, producer="bind")
            return state

        return FunctionOperator(bind, label=f"BIND[{index}]")

    def latencies_ms(self) -> list[float]:
        return [
            (self.marks[i + 1] - self.marks[i]) * 1e3
            for i in range(len(self.marks) - 1)
            # The last item of an iteration ends inside the loop, where
            # the benchmark cannot see it; its gap would include the
            # refinement and the next strict check.
            if i % self.items != self.items - 1
        ]


def freeze_state(state: ExecutionState) -> str:
    """A byte-exact serialization of the final (C, M) pair."""
    context = {key: repr(state.context[key]) for key in state.context.keys()}
    metadata = {key: repr(state.metadata[key]) for key in state.metadata.keys()}
    return json.dumps({"context": context, "metadata": metadata}, sort_keys=True)


class RefineLoop:
    """Five iterations of a 4-stage pipeline, refining only ``filter_p``."""

    name = "refine-loop"

    def __init__(self, items: int = 200, iterations: int = 5) -> None:
        self.items = items
        self.iterations = iterations

    def inputs(self, seed: int, seconds: float) -> Any:
        return make_tweet_corpus(self.items, seed=seed)

    def _build(
        self, corpus: Any, tracer: Any, *, ledger_dir: Path | None
    ) -> tuple[ExecutionState, RefinementLoop, _LoopRecorder]:
        """The loop; with ``ledger_dir`` also result cache, strict and obs."""
        cold_start()
        llm = SimulatedLLM(PROFILE, enable_prefix_cache=False)
        llm.bind_tweets(corpus)
        state = ExecutionState(model=llm, clock=llm.clock)
        state.prompts.create("map_p", MAP_PROMPT)
        state.prompts.create(
            "enrich_p", SCAFFOLD + "\n" + ENRICH_INSTRUCTION + "\nTweet:\n{tweet}"
        )
        state.prompts.create(
            "digest_p", SCAFFOLD + "\nSummary:\n{summary}\n" + DIGEST_INSTRUCTION
        )
        state.prompts.create("filter_p", FILTER_NEG_INSTRUCTION + "\nTweet:\n{tweet}")
        recorder = _LoopRecorder(len(corpus), tracer)
        operators: list[Any] = []
        for index, tweet in enumerate(corpus):
            operators += [
                recorder.bind(index, tweet.text),
                GEN("summary", prompt="map_p"),
                GEN("keywords", prompt="enrich_p"),
                GEN("takeaway", prompt="digest_p"),
                GEN("verdict", prompt="filter_p", max_tokens=8),
            ]
        options = RuntimeOptions(model=llm, clock=llm.clock)
        if ledger_dir is not None:
            options = options.replace(
                result_cache=ResultCache(capacity=16384),
                strict=True,
                collector=ObsCollector(),
                ledger_dir=str(ledger_dir),
            )
        refiners = [
            REF("APPEND", hint, key="filter_p", function_name=f"f_focus_{i}")
            for i, hint in enumerate(REFINEMENT_HINTS[: self.iterations - 1])
        ]
        loop = RefinementLoop(
            Executor(options=options),
            Pipeline(operators, name="refine_loop"),
            refiners=refiners,
            max_iterations=self.iterations,
        )
        return state, loop, recorder

    def setup(self, corpus: Any, workdir: Path) -> Any:
        # The ledger directory is created by the first run, not here.
        return self._build(corpus, None, ledger_dir=workdir / "unused-ledger")

    def reference(self, corpus: Any) -> dict[str, Any]:
        """The same loop without result cache, strict mode or obs."""
        state, loop, recorder = self._build(corpus, None, ledger_dir=None)
        report = loop.run(state=state)
        recorder.snapshot(report.final.state)
        return {
            "outputs": recorder.outputs,
            "final": freeze_state(report.final.state),
        }

    def rep(
        self, corpus: Any, reference: dict[str, Any], tracer: Any, workdir: Path
    ) -> Rep:
        ledger_dir = Path(tempfile.mkdtemp(prefix="ledger-", dir=workdir))
        try:
            started = time.perf_counter()
            window = _CheckCacheWindow()
            state, loop, recorder = self._build(
                corpus, tracer, ledger_dir=ledger_dir
            )
            setup_done = time.perf_counter()
            report = loop.run(state=state)
            finished = time.perf_counter()
        finally:
            shutil.rmtree(ledger_dir, ignore_errors=True)
        final = report.final.state
        recorder.snapshot(final)

        expected = reference["outputs"]
        failed = sum(
            1 for got, want in zip(recorder.outputs, expected) if got != want
        )
        failed += abs(len(expected) - len(recorder.outputs))
        if not failed and freeze_state(final) != reference["final"]:
            failed = 1
        # Every iteration's verdicts count: over ten seeds the final
        # iteration alone (200 verdicts) spread by 0.05-0.09 of its
        # median, all five iterations by 0.02-0.04.
        correct = sum(
            1
            for index, outputs in enumerate(recorder.outputs)
            if says_yes(outputs[-1]) == corpus[index % len(corpus)].is_negative
        )
        counts: dict[str, float] = {}
        if tracer is not None:
            counts = {
                **_llm_counts([final.model]),
                **_result_cache_counts([final.result_cache]),
                **window.counts(),
            }
        return Rep(
            setup_s=setup_done - started,
            run_s=finished - setup_done,
            units=len(recorder.outputs),
            latencies_ms=recorder.latencies_ms(),
            sim_s=report.total_elapsed,
            accuracy=correct / len(recorder.outputs),
            failed=failed,
            counts=counts,
        )

    def extra_metrics(self, reps: list[Rep], reference: dict[str, Any]) -> dict:
        return {}


# -- serve-skewed -----------------------------------------------------------------


def serve_outputs(result: Any, pipeline: str) -> tuple:
    """The outputs one served pipeline produces, in label order."""
    labels = ("summary", "neg") if pipeline == "summarize_filter" else ("summary",)
    return tuple(result.output(label) for label in labels)


@dataclass(frozen=True)
class ServeInputs:
    corpus: Any
    #: ``(due offset s, request id, tenant, pipeline, tweet index)``.
    schedule: list[tuple[float, str, str, str, int]]
    #: ``(request id, tenant, pipeline, tweet index)``, submitted in
    #: bursts after the open loop.
    backlog: list[tuple[str, str, str, int]]


class ServeSkewed:
    """Open-loop Poisson traffic into a 2-worker, 16-tenant server.

    ``tenant-0`` receives half the traffic; every fourth tenant is
    interactive with a deadline.  After the open loop a fixed backlog
    goes in as bursts, and their drain rate is the server's capacity.

    At 100 req/s the pool is about a quarter busy.  The host's slow
    periods double service time; at 150 req/s they pushed the pool to
    three quarters busy, where p99 grew fourfold.
    """

    name = "serve-skewed"

    def __init__(self, tenants: int = 16, corpus: int = 128) -> None:
        self.tenants = tenants
        self.corpus = corpus

    def _pick(self, rng: random.Random, index: int) -> tuple[str, str, str, int]:
        tenant = 0 if rng.random() < 0.5 else rng.randrange(1, self.tenants)
        pipeline = "summarize" if rng.random() < 0.5 else "summarize_filter"
        name = f"tenant-{tenant}"
        return f"{name}#{index}", name, pipeline, rng.randrange(self.corpus)

    def inputs(self, seed: int, seconds: float) -> ServeInputs:
        rng = random.Random(seed)
        schedule = []
        due = 0.0
        for index in range(int(SERVE_RATE * seconds * SERVE_OPEN_SHARE)):
            due += rng.expovariate(SERVE_RATE)
            schedule.append((due, *self._pick(rng, index)))
        start = len(schedule)
        backlog = [
            self._pick(rng, start + index)
            for index in range(int(SERVE_BACKLOG_PER_S * seconds))
        ]
        return ServeInputs(
            make_tweet_corpus(self.corpus, seed=seed), schedule, backlog
        )

    def setup(self, inputs: ServeInputs, workdir: Path | None = None) -> SpearServer:
        cold_start()
        corpus = inputs.corpus
        server = SpearServer(
            profile=PROFILE,
            binder=lambda llm: llm.bind_tweets(corpus),
            workers=SERVE_WORKERS,
            scheduler=True,
            shed=ShedPolicy(queue_limit=1_000_000),
        )
        program = dl.compile_source(DL_SOURCE, filename="serve.spear")
        for name in ("summarize", "summarize_filter"):
            pipeline = program.pipeline(name)
            prompts = {
                key: SERVE_PROMPTS[key]
                for key in ("map_p", "filter_p")
                if name == "summarize_filter" or key == "map_p"
            }
            server.register_pipeline(name, pipeline, prompts=prompts)
        for index in range(self.tenants):
            interactive = index % 4 == 0
            name = f"tenant-{index}"
            server.add_tenant(
                name,
                priority="interactive" if interactive else None,
                deadline_s=5.0 if interactive else None,
            )
            server.session(name)
        return server

    def reference(self, inputs: ServeInputs) -> dict[tuple[str, str], tuple]:
        """Standalone outputs of every (pipeline, tweet uid) the traffic uses."""
        llm = SimulatedLLM(PROFILE)
        llm.bind_tweets(inputs.corpus)
        executor = Executor(
            options=RuntimeOptions(
                model=llm, clock=llm.clock, result_cache=ResultCache(),
                scheduler=True,
            )
        )
        base = executor.new_state()
        for key, text in SERVE_PROMPTS.items():
            base.prompts.create(key, text)
        program = dl.compile_source(DL_SOURCE, filename="serve.spear")
        wanted = {
            (pipeline, tweet)
            for _due, _rid, _tenant, pipeline, tweet in inputs.schedule
        } | {(pipeline, tweet) for _rid, _tenant, pipeline, tweet in inputs.backlog}
        out = {}
        for pipeline, tweet in sorted(wanted):
            state = base.fork()
            state.context.put("tweet", inputs.corpus[tweet].text, producer="serve")
            result = executor.run(program.pipeline(pipeline), state=state)
            out[(pipeline, inputs.corpus[tweet].uid)] = serve_outputs(
                result, pipeline
            )
        return out

    def _submit(
        self,
        server: SpearServer,
        spec: tuple[str, str, str, int],
        inputs: ServeInputs,
        tally: "_Tally",
        key: int,
    ) -> None:
        request_id, tenant, pipeline, tweet = spec
        try:
            future = server.submit(
                ServeRequest(
                    tenant=tenant,
                    pipeline=pipeline,
                    context={"tweet": inputs.corpus[tweet].text},
                    request_id=request_id,
                )
            )
        except RateLimitError:
            tally.shed()
            return
        future.add_done_callback(
            functools.partial(tally.judge, key, pipeline, inputs.corpus[tweet])
        )

    def serve(
        self, inputs: ServeInputs, reference: dict, tracer: Any
    ) -> dict[str, Any]:
        """One cold server: set-up, open loop, backlog drain, gate."""
        window = _CheckCacheWindow()
        server = self.setup(inputs)
        opened = _Tally(reference, len(inputs.schedule))
        size = -(-len(inputs.backlog) // SERVE_DRAIN_CHUNKS)
        chunks = [
            inputs.backlog[index:index + size]
            for index in range(0, len(inputs.backlog), size)
        ]
        drained = [_Tally(reference, len(chunk)) for chunk in chunks]
        drain_s = 0.0
        due_at = []
        late = []
        server.start()
        try:
            start = time.perf_counter()
            for key, (due, *spec) in enumerate(inputs.schedule):
                target = start + due
                now = time.perf_counter()
                if now < target:
                    time.sleep(target - now)
                    now = time.perf_counter()
                late.append(now - target)
                due_at.append(target)
                self._submit(server, spec, inputs, opened, key)
            opened.wait()
            # The backlog goes in as consecutive bursts, each submitted
            # at once and drained before the next.
            for chunk, tally in zip(chunks, drained):
                drain_start = time.perf_counter()
                for key, spec in enumerate(chunk):
                    self._submit(server, spec, inputs, tally, key)
                tally.wait()
                drain_s += max(tally.finished.values()) - drain_start
        finally:
            server.shutdown()

        sessions = [server.session(f"tenant-{i}") for i in range(self.tenants)]
        tallies = [opened, *drained]
        waits = [ms for tally in tallies for ms in tally.waits_ms]
        return {
            #: backlog requests per second of draining.
            "drain_rate": sum(len(t.finished) for t in drained) / drain_s,
            #: latencies in due order.
            "latencies_ms": [
                (opened.finished[key] - due_at[key]) * 1e3
                for key in sorted(opened.finished)
            ],
            # fsum is exact, so the total does not depend on the order
            # in which the two workers completed requests.
            "sim_s": math.fsum(opened.elapsed),
            "accuracy": sum(t.correct for t in tallies)
            / sum(t.judged for t in tallies),
            "attempted": len(inputs.schedule) + len(inputs.backlog),
            "failed": sum(t.failed for t in tallies),
            "counts": {
                **_llm_counts([session.model for session in sessions]),
                **window.counts(),
                **_result_cache_counts(
                    [
                        session.executor.options.result_cache
                        for session in sessions
                        if session.executor.options.result_cache is not None
                    ]
                ),
                "events.retained_hot": len(sessions[0].state.events),
                "serve.queue_wait_p50_ms": quantile(waits, 0.50),
                "serve.queue_wait_p99_ms": quantile(waits, 0.99),
                "serve.shed": sum(t.sheds for t in tallies),
                "serve.errors": sum(t.errors for t in tallies),
                "serve.generator_late_ms": max(late, default=0.0) * 1e3,
            },
        }


class _Tally:
    """Judges responses as they complete, keeping only small numbers.

    Holding every response until the end would keep each request's
    state alive and lengthen the collector pauses the run measures.
    """

    def __init__(self, reference: dict, expected: int) -> None:
        self.reference = reference
        self.expected = expected
        self.lock = threading.Lock()
        self.all_done = threading.Event()
        #: request key -> host time its response completed.
        self.finished: dict[int, float] = {}
        self.waits_ms: list[float] = []
        self.failed = self.sheds = self.errors = 0
        self.correct = self.judged = 0
        #: simulated run time of each ok response.
        self.elapsed: list[float] = []
        if expected == 0:
            self.all_done.set()

    def _settle(self) -> None:
        if len(self.finished) + self.sheds == self.expected:
            self.all_done.set()

    def shed(self) -> None:
        with self.lock:
            self.sheds += 1
            self.failed += 1
            self._settle()

    def judge(self, key: int, pipeline: str, tweet: Any, future: Any) -> None:
        now = time.perf_counter()
        response = future.result()
        with self.lock:
            self.finished[key] = now
            if response.ok:
                got = serve_outputs(response, pipeline)
                self.failed += got != self.reference[(pipeline, tweet.uid)]
                self.waits_ms.append(response.queue_wait * 1e3)
                # RunResult.elapsed is measured under the session lock;
                # ServeResponse.elapsed is not (NOTES.md, defect (a)).
                self.elapsed.append(response.result.elapsed)
                if pipeline == "summarize_filter":
                    self.judged += 1
                    self.correct += says_yes(got[1]) == tweet.is_negative
            else:
                self.failed += 1
                self.errors += response.status == "error"
            self._settle()

    def wait(self, timeout: float = 120.0) -> None:
        if not self.all_done.wait(timeout):
            raise TimeoutError("serving requests did not complete in time")
