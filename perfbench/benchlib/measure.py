"""Turn repetitions of a workload into the metrics the command prints.

``--trace 0`` measures with no wrappers installed and reports the
end-to-end metrics.  ``--trace 1`` alternates untraced and traced work
of the same shape.  It reports host throughput and latency from the
untraced work, the layer metrics from the traced work, and the
traced/untraced host-time ratio as tracing overhead.
"""

from __future__ import annotations

import gc
import resource
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from benchlib import layers
from benchlib.catalog import metrics as metric_units
from benchlib.tracer import Tracer
from benchlib.workloads import (
    RefineLoop,
    Rep,
    ServeSkewed,
    Table3Batch,
    median,
    quantile,
)

WORKLOADS = {
    workload.name: workload
    for workload in (Table3Batch(), RefineLoop(), ServeSkewed())
}

#: ``setup_s`` is a median over timed units of SETUP_BATCH cold set-ups
#: in a row.  One set-up takes 0.5-2 ms, and the host's speed moves by up
#: to 1.7x within seconds, so the units are spread over the whole run:
#: one before each repetition, or SETUP_UNITS before and after serving.
SETUP_BATCH = 20
SETUP_UNITS = 8


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int
    failed: int
    #: gates beyond per-unit outputs (e.g. simulated time repeating).
    gates_ok: bool

    @property
    def correct(self) -> bool:
        return self.gates_ok and self.failed == 0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _layer_metrics(
    span_rows: list[dict[str, float]], count_rows: list[dict[str, float]]
) -> dict[str, float]:
    """Median over traced repetitions of every per-layer metric."""
    metrics = dict.fromkeys(metric_units(trace=True), 0.0)
    for name in metrics:
        values = [row[name] for row in span_rows + count_rows if name in row]
        if values:
            metrics[name] = median(values)
    return metrics


def setup_unit(workload: Any, inputs: Any, workdir: Path) -> float:
    """Mean seconds per cold set-up over one unit, on a collected heap."""
    gc.collect()
    start = time.perf_counter()
    for _ in range(SETUP_BATCH):
        workload.setup(inputs, workdir)
    return (time.perf_counter() - start) / SETUP_BATCH


def _traced(workload_call, tracer: Tracer | None):
    """Run ``workload_call(tracer)`` with the tracer's wrappers installed.

    Every repetition starts from a collected heap, so collector pauses
    inside it depend on its own allocations, not on earlier ones.
    """
    gc.collect()
    if tracer is None:
        return workload_call(None)
    tracer.install(layers.targets())
    try:
        return workload_call(tracer)
    finally:
        tracer.uninstall()


def measure_batch(
    workload: Any, inputs: Any, seconds: float, trace: bool, workdir: Path,
    trace_path: Path | None,
) -> Outcome:
    """table3-batch and refine-loop: cold repetitions until time is up."""
    reference = workload.reference(inputs)
    setups: list[float] = []

    def one(tracer: Tracer | None) -> Rep:
        return workload.rep(inputs, reference, tracer, workdir)

    plain: list[Rep] = []
    traced: list[tuple[Rep, dict[str, float]]] = []
    last_tracer: Tracer | None = None
    deadline = time.perf_counter() + seconds
    while True:
        setups.append(setup_unit(workload, inputs, workdir))
        tracer = Tracer() if trace and len(plain) > len(traced) else None
        rep = _traced(one, tracer)
        if tracer is None:
            plain.append(rep)
        else:
            traced.append((rep, layers.span_metrics(tracer.totals())))
            last_tracer = tracer
        if time.perf_counter() >= deadline and (not trace or traced):
            break

    reps = plain + [rep for rep, _spans in traced]
    attempted = sum(rep.units for rep in reps)
    failed = sum(rep.failed for rep in reps)
    # Simulated time and accuracy are pure functions of the inputs.
    gates_ok = (
        len({rep.sim_s for rep in reps}) == 1
        and len({rep.accuracy for rep in reps}) == 1
    )
    if not trace:
        metrics = {
            "setup_s": median(setups),
            "sim_s": plain[0].sim_s,
            "accuracy": plain[0].accuracy,
            "peak_rss_mb": peak_rss_mb(),
        }
        return Outcome(metrics, attempted, failed, gates_ok)

    metrics = _layer_metrics(
        [spans for _rep, spans in traced], [rep.counts for rep, _s in traced]
    )
    metrics.update(workload.extra_metrics(plain, reference))
    # Every unit of every untraced repetition is one sample: the host runs
    # some repetitions in a slower state than others, and pooling weighs
    # them by their share of the run instead of letting a median jump
    # from one state to the other.
    latencies = [ms for r in plain for ms in r.latencies_ms]
    metrics["items_per_s"] = sum(r.units for r in plain) / sum(
        r.run_s for r in plain
    )
    metrics["latency_p50_ms"] = quantile(latencies, 0.50)
    metrics["latency_p99_ms"] = quantile(latencies, 0.99)
    metrics["trace.overhead_ratio"] = median(
        [rep.setup_s + rep.run_s for rep, _s in traced]
    ) / median([rep.setup_s + rep.run_s for rep in plain])
    if trace_path is not None and last_tracer is not None:
        last_tracer.write(trace_path, workload=workload.name)
    return Outcome(metrics, attempted, failed, gates_ok)


def measure_serve(
    workload: ServeSkewed, inputs: Any, trace: bool, workdir: Path,
    trace_path: Path | None,
) -> Outcome:
    """serve-skewed: one cold server through the open loop and backlog.

    With tracing, an untraced and a traced server each take the same
    inputs, so the overhead ratio compares equal work.
    """
    reference = workload.reference(inputs)
    setups = [setup_unit(workload, inputs, workdir) for _ in range(SETUP_UNITS)]
    run = _traced(lambda t: workload.serve(inputs, reference, t), None)
    setups += [setup_unit(workload, inputs, workdir) for _ in range(SETUP_UNITS)]
    attempted, failed = run["attempted"], run["failed"]
    if not trace:
        metrics = {
            "setup_s": median(setups),
            "sim_s": run["sim_s"],
            "accuracy": run["accuracy"],
            "peak_rss_mb": peak_rss_mb(),
        }
        return Outcome(metrics, attempted, failed, True)

    tracer = Tracer()
    traced = _traced(lambda t: workload.serve(inputs, reference, t), tracer)
    attempted += traced["attempted"]
    failed += traced["failed"]
    metrics = _layer_metrics(
        [layers.span_metrics(tracer.totals())], [traced["counts"]]
    )
    execute = tracer.durations("TenantSession.execute")
    metrics["serve.execute_p50_ms"] = quantile([ms for *_k, ms in execute], 0.5)
    hot = [ms for unit, _start, ms in sorted(execute, key=lambda row: row[1])
           if str(unit).startswith("tenant-0#")]
    tenth = max(1, len(hot) // 10)
    if hot:
        metrics["serve.execute_growth"] = median(hot[-tenth:]) / median(hot[:tenth])
    metrics["items_per_s"] = run["drain_rate"]
    metrics["latency_p50_ms"] = quantile(run["latencies_ms"], 0.50)
    metrics["latency_p99_ms"] = quantile(run["latencies_ms"], 0.99)
    metrics["trace.overhead_ratio"] = run["drain_rate"] / traced["drain_rate"]
    if trace_path is not None:
        tracer.write(trace_path, workload=workload.name)
    # Traced, the same inputs were served twice: simulated time and
    # accuracy must repeat.  Untraced, the gates are the per-response ones.
    gates_ok = (run["sim_s"], run["accuracy"]) == (
        traced["sim_s"], traced["accuracy"]
    )
    return Outcome(metrics, attempted, failed, gates_ok)


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, workdir: Path
) -> Outcome:
    workload = WORKLOADS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    trace_path = workdir / f"trace-{name}-seed{seed}.json" if trace else None
    if isinstance(workload, ServeSkewed):
        # Traced, the serving workload runs twice (untraced, then traced)
        # on half-length inputs, so the run still takes ``seconds``.
        inputs = workload.inputs(seed, seconds / 2 if trace else seconds)
        return measure_serve(workload, inputs, trace, workdir, trace_path)
    inputs = workload.inputs(seed, seconds)
    return measure_batch(workload, inputs, seconds, trace, workdir, trace_path)

