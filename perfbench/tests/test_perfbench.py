"""Determinism, correctness-gate and schema tests for the benchmark.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
The workloads are shrunk so the whole file takes seconds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench_run
from benchlib import layers, measure
from benchlib.catalog import CLOCKS, metrics
from benchlib.tracer import Tracer
from benchlib.workloads import RefineLoop, ServeInputs, ServeSkewed, Table3Batch

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

SMALL = {
    "table3-batch": Table3Batch(items=32, lanes=4),
    "refine-loop": RefineLoop(items=8, iterations=3),
    "serve-skewed": ServeSkewed(tenants=4, corpus=16),
}


@pytest.fixture
def small_workloads(monkeypatch):
    monkeypatch.setattr(measure, "WORKLOADS", dict(SMALL))
    return SMALL


def identity(inputs):
    if isinstance(inputs, ServeInputs):
        return identity(inputs.corpus), inputs.schedule, inputs.backlog
    return [(t.uid, t.text, t.sentiment) for t in inputs]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_same_inputs(name):
    workload = SMALL[name]
    first = identity(workload.inputs(5, 1.0))
    assert first == identity(workload.inputs(5, 1.0))
    assert first != identity(workload.inputs(6, 1.0))


def traced_run(name, workload, inputs, reference, workdir):
    """``(failed, sim_s, accuracy, counts)`` of one traced unit of work."""
    tracer = Tracer().install(layers.targets())
    try:
        if name == "serve-skewed":
            run = workload.serve(inputs, reference, tracer)
            failed, sim_s, accuracy = run["failed"], run["sim_s"], run["accuracy"]
            counts = run["counts"]
        else:
            rep = workload.rep(inputs, reference, tracer, workdir)
            failed, sim_s, accuracy = rep.failed, rep.sim_s, rep.accuracy
            counts = rep.counts
    finally:
        tracer.uninstall()
    recorded = layers.span_metrics(tracer.totals())["events.recorded"]
    return failed, sim_s, accuracy, {**counts, "events.recorded": recorded}


EXACT = (
    "llm.kv_hit_ratio", "llm.gen_calls", "scheduler.steps",
    "result_cache.hits", "result_cache.misses", "events.recorded",
    "events.retained_hot",
)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_simulated_and_count_metrics_repeat_exactly(name, tmp_path):
    workload = SMALL[name]
    inputs = workload.inputs(3, 1.0)
    reference = workload.reference(inputs)
    first, second = (
        traced_run(name, workload, inputs, reference, tmp_path) for _ in range(2)
    )
    assert first[0] == second[0] == 0
    assert first[1:3] == second[1:3]
    assert first[3]["events.recorded"] > 0
    for key in EXACT:
        assert first[3].get(key) == second[3].get(key), key
    if name == "refine-loop":
        assert first[3]["result_cache.hits"] > 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_corrupted_output_trips_the_gate(name, tmp_path):
    workload = SMALL[name]
    inputs = workload.inputs(2, 1.0)
    reference = workload.reference(inputs)
    if name == "serve-skewed":
        key = next(iter(reference))
        reference[key] = ("corrupted",) + reference[key][1:]
        assert workload.serve(inputs, reference, None)["failed"] > 0
        return
    reference["outputs"][0] = ("corrupted",)
    assert workload.rep(inputs, reference, None, tmp_path).failed == 1


def test_corrupted_output_exits_non_zero(small_workloads, monkeypatch, capsys):
    workload = small_workloads["table3-batch"]
    honest = workload.reference

    def corrupted(inputs):
        reference = honest(inputs)
        reference["outputs"][-1] = ("corrupted", None)
        return reference

    monkeypatch.setattr(workload, "reference", corrupted)
    code = bench_run.main(
        ["--workload", "table3-batch", "--seed", "1", "--seconds", "0.1"]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_every_metric_has_a_clock():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [e["name"] for e in spec["end_to_end"] + spec["per_layer"]]
    assert sorted(names) == sorted(CLOCKS)
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(entry["name"]), entry
        assert UNIT.match(entry["unit"]), entry
        assert CLOCKS[entry["name"]] in ("host", "simulated", "none"), entry
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_printed_metrics_match_benchmark_json(small_workloads, capsys, name, trace):
    code = bench_run.main(
        ["--workload", name, "--seed", "4", "--seconds", "0.5",
         "--trace", str(trace)]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    units = metrics(bool(trace))
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == list(units)
    for metric, row in result["metrics"].items():
        assert row["unit"] == units[metric]
        assert any(
            metric in line and f"[{CLOCKS[metric]}]" in line for line in lines
        )
        if not trace:
            assert row["value"] > 0, metric


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table3-batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
