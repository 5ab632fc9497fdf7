"""Tests for the command-line interface."""

import importlib
import json
import re
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

DL_SOURCE = '''view med_summary(drug) {
  """### Task
Summarize the patient's medication history and highlight any use of {drug}.
Notes:
{initial_notes}"""
}

pipeline qa {
  RET["initial_notes", query="p0001"]
  VIEW["med_summary", key="qa", params={drug: "Enoxaparin"}]
  GEN["answer_0", prompt="qa"]
  CHECK[M["confidence"] < 0.9] -> REF[APPEND, "Be specific about dosage.", key="qa"]
  GEN["answer_1", prompt="qa"]
  DELEGATE["validation_agent", payload="answer_1", into="validation"]
}
'''


@pytest.fixture
def dl_file(tmp_path):
    path = tmp_path / "demo.spear"
    path.write_text(DL_SOURCE, encoding="utf-8")
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiments_choices(self):
        args = build_parser().parse_args(["experiments", "table3", "--n", "50"])
        assert args.which == "table3"
        assert args.n == 50

    def test_invalid_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiments", "table9"])


class TestRunCommand:
    def test_run_executes_pipeline(self, dl_file, capsys):
        code = main(["run", str(dl_file), "--pipeline", "qa"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pipeline 'qa' finished" in out
        assert "answer_1:" in out
        assert "validation:" in out

    def test_run_with_trace(self, dl_file, capsys):
        main(["run", str(dl_file), "--pipeline", "qa", "--show-trace"])
        out = capsys.readouterr().out
        assert "execution timeline:" in out
        assert "generate" in out

    def test_run_unknown_pipeline_fails(self, dl_file, capsys):
        code = main(["run", str(dl_file), "--pipeline", "ghost"])
        assert code == 1
        assert "error: no pipeline named 'ghost'" in capsys.readouterr().err


class TestFmtCommand:
    def test_fmt_prints_canonical_source(self, dl_file, capsys):
        code = main(["fmt", str(dl_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("view med_summary(drug)")
        # Canonical output reparses to the same program.
        from repro.dl import parse

        assert parse(out) == parse(DL_SOURCE)

    def test_fmt_write_in_place(self, dl_file, capsys):
        main(["fmt", str(dl_file), "--write"])
        assert "reformatted" in capsys.readouterr().out
        text = dl_file.read_text()
        assert text.startswith("view med_summary(drug)")

    def test_fmt_syntax_error_is_one_line(self, tmp_path, capsys):
        bad = tmp_path / "open.spear"
        bad.write_text("pipeline p {\n", encoding="utf-8")
        code = main(["fmt", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 2, column 1:")
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


@pytest.fixture
def trace_file(tmp_path, monkeypatch, capsys):
    """A JSONL event trace exported by the quickstart example."""
    examples_dir = Path(__file__).resolve().parent.parent / "examples"
    monkeypatch.syspath_prepend(str(examples_dir))
    quickstart = importlib.import_module("quickstart")
    try:
        path = tmp_path / "quickstart_run.jsonl"
        quickstart.main(trace_path=path)
        capsys.readouterr()  # swallow the example's own output
        yield path
    finally:
        sys.modules.pop("quickstart", None)


class TestStatsCommand:
    def test_stats_table_rollups(self, trace_file, capsys):
        code = main(["stats", str(trace_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Per-operator rollup" in out
        assert "GEN" in out and "CHECK" in out
        assert "Per-prompt generation rollup" in out
        assert "judge" in out
        assert re.search(r"cache hit ratio \d+\.\d%", out)
        assert "totals:" in out
        assert "slowest spans:" in out

    def test_stats_json_matches_offline_report(self, trace_file, capsys):
        code = main(["stats", str(trace_file), "--format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)

        from repro.obs import build_run_report
        from repro.runtime.tracing import import_events

        expected = build_run_report(import_events(trace_file))
        assert report["operators"] == expected.operators
        assert report["generation"] == expected.generation
        assert report["totals"] == expected.totals
        assert report["generation"]["judge"]["calls"] >= 1

    def test_stats_prometheus_is_valid_exposition(self, trace_file, capsys):
        code = main(["stats", str(trace_file), "--format", "prometheus"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE spear_gen_calls_total counter" in out
        assert "# TYPE spear_operator_wall_seconds histogram" in out
        assert 'spear_gen_calls_total{prompt="judge"}' in out
        # Every line is either a comment or `name{labels} value`.
        sample = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*='
            r'"(?:[^"\\]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? '
            r"(?:[+-]?(?:\d+(?:\.\d+)?(?:e[+-]?\d+)?|Inf|NaN))$"
        )
        for line in out.splitlines():
            assert line.startswith("#") or sample.match(line), line

    def test_stats_batch_table(self, tmp_path, tweet_corpus, capsys):
        """A trace containing BATCH events renders the batch-runs table."""
        from repro.core import GEN, Pipeline
        from repro.core.state import ExecutionState
        from repro.llm.model import SimulatedLLM
        from repro.runtime.batch import BatchRunner
        from repro.runtime.tracing import export_events

        llm = SimulatedLLM("qwen2.5-7b-instruct")
        llm.bind_tweets(tweet_corpus)
        state = ExecutionState(model=llm, clock=llm.clock)
        state.prompts.create(
            "filter",
            "Select the tweet only if its sentiment is negative. "
            "Respond with yes or no.\nTweet:\n{tweet}",
        )
        runner = BatchRunner(
            state, bind=lambda s, t: s.context.put("tweet", t.text, producer="b")
        )
        batch = runner.run(
            Pipeline([GEN("verdict", prompt="filter")]), items=tweet_corpus.tweets[:5]
        )
        trace = tmp_path / "batch_run.jsonl"
        export_events(state.events, trace)

        code = main(["stats", str(trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Batch runs" in out
        assert "sequential" in out
        assert f"{batch.throughput:.3f}" in out

    def test_stats_scheduler_table(self, tmp_path, tweet_corpus, capsys):
        """A trace containing SCHED events renders the scheduler table."""
        from repro.core import GEN, Pipeline
        from repro.core.state import ExecutionState
        from repro.llm.model import SimulatedLLM
        from repro.runtime.options import RuntimeOptions
        from repro.runtime.parallel import ParallelBatchRunner
        from repro.runtime.tracing import export_events

        llm = SimulatedLLM("qwen2.5-7b-instruct")
        llm.bind_tweets(tweet_corpus)
        state = ExecutionState(model=llm, clock=llm.clock)
        state.prompts.create(
            "filter",
            "Select the tweet only if its sentiment is negative. "
            "Respond with yes or no.\nTweet:\n{tweet}",
        )
        runner = ParallelBatchRunner(
            state,
            bind=lambda s, t: s.context.put("tweet", t.text, producer="b"),
            workers=4,
            options=RuntimeOptions(
                priority=lambda t: "interactive"
                if int(t.uid[-1]) % 2 == 0
                else "bulk",
            ),
        )
        runner.run(
            Pipeline([GEN("verdict", prompt="filter")]), items=tweet_corpus.tweets[:8]
        )
        trace = tmp_path / "sched_run.jsonl"
        export_events(state.events, trace)

        code = main(["stats", str(trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Scheduler" in out
        assert "interactive" in out
        assert "bulk" in out
        assert re.search(r"steps: \d+ {2}mean step size: \d+\.\d+", out)
        assert "preemptions:" in out and "queue depth:" in out

    def test_stats_result_cache_table(self, tmp_path, tweet_corpus, capsys):
        """A trace containing CACHE_HIT events renders the cache table."""
        from repro.core import GEN, Pipeline
        from repro.llm.model import SimulatedLLM
        from repro.runtime.executor import Executor
        from repro.runtime.options import RuntimeOptions
        from repro.runtime.result_cache import ResultCache
        from repro.runtime.tracing import export_events

        llm = SimulatedLLM("qwen2.5-7b-instruct", enable_prefix_cache=False)
        llm.bind_tweets(tweet_corpus)
        executor = Executor(
            options=RuntimeOptions(
                model=llm, clock=llm.clock, result_cache=ResultCache()
            )
        )
        state = executor.new_state()
        state.prompts.create(
            "filter",
            "Select the tweet only if its sentiment is negative. "
            f"Respond with yes or no.\nTweet:\n{tweet_corpus[0].text}",
        )
        pipeline = Pipeline([GEN("verdict", prompt="filter")])
        executor.run(pipeline, state=state)
        executor.run(pipeline, state=state)  # served from the cache
        trace = tmp_path / "cached_run.jsonl"
        export_events(state.events, trace)

        code = main(["stats", str(trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Result cache" in out
        assert re.search(r"result cache: 1 hits?, \d+\.\d+s", out)

    def test_stats_resilience_table(self, tmp_path, tweet_corpus, capsys):
        """A trace containing FAULT/RETRY events renders the resilience table."""
        from repro.core import GEN, Pipeline
        from repro.llm.model import SimulatedLLM
        from repro.resilience import (
            FaultPlan,
            FaultSpec,
            ResilienceRuntime,
            RetryPolicy,
        )
        from repro.runtime.executor import Executor
        from repro.runtime.options import RuntimeOptions
        from repro.runtime.tracing import export_events

        llm = SimulatedLLM(
            "qwen2.5-7b-instruct",
            enable_prefix_cache=False,
            fault_plan=FaultPlan(0, default=FaultSpec(transient_rate=0.5)),
        )
        llm.bind_tweets(tweet_corpus)
        executor = Executor(
            options=RuntimeOptions(
                model=llm,
                clock=llm.clock,
                resilience=ResilienceRuntime(
                    retry=RetryPolicy(
                        max_attempts=6, base_delay_s=0.1, jitter=0.0
                    )
                ),
            )
        )
        state = executor.new_state()
        # Enough distinct prompts that at least one draws a fault.
        for index, tweet in enumerate(tweet_corpus[:8]):
            state.prompts.create(
                f"filter{index}",
                "Select the tweet only if its sentiment is negative. "
                f"Respond with yes or no.\nTweet:\n{tweet.text}",
            )
            executor.run(
                Pipeline([GEN("verdict", prompt=f"filter{index}")]),
                state=state,
            )
        from repro.runtime.events import EventKind

        assert state.events.of_kind(EventKind.FAULT)  # faults were drawn
        trace = tmp_path / "faulted_run.jsonl"
        export_events(state.events, trace)

        code = main(["stats", str(trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Resilience" in out
        assert "qwen2.5-7b-instruct" in out
        assert re.search(r"faults injected: [1-9]\d*", out)

    def test_stats_top_limits_slowest_spans(self, trace_file, capsys):
        main(["stats", str(trace_file), "--top", "1"])
        out = capsys.readouterr().out
        _, _, spans_block = out.partition("slowest spans:")
        # the refinement-utility section (if any) follows the spans block
        spans_block, _, _ = spans_block.partition("Refinement utility")
        assert len([ln for ln in spans_block.splitlines() if ln.strip()]) == 1

    def test_stats_empty_trace_clean_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        code = main(["stats", str(empty)])
        assert code == 1
        captured = capsys.readouterr()
        err_lines = [ln for ln in captured.err.splitlines() if ln.strip()]
        assert len(err_lines) == 1
        assert "error:" in err_lines[0]
        assert "no events" in err_lines[0]
        assert "Traceback" not in captured.err

    def test_stats_truncated_trace_clean_error(self, trace_file, capsys):
        # Chop the file mid-line, as a crashed writer would leave it.
        text = trace_file.read_text(encoding="utf-8")
        trace_file.write_text(text[: len(text) - 20], encoding="utf-8")
        code = main(["stats", str(trace_file)])
        assert code == 1
        captured = capsys.readouterr()
        err_lines = [ln for ln in captured.err.splitlines() if ln.strip()]
        assert len(err_lines) == 1
        assert "error:" in err_lines[0]
        assert "truncated" in err_lines[0]
        assert "Traceback" not in captured.err

    def test_stats_rejects_untrusted_type_tags_cleanly(self, tmp_path, capsys):
        # A malicious trace must produce a clean CLI error (exit 1), not
        # code execution and not a traceback.
        evil = tmp_path / "evil.jsonl"
        evil.write_text(
            json.dumps(
                {
                    "seq": 0,
                    "kind": "generate",
                    "operator": "GEN[x]",
                    "at": 0.0,
                    "payload": {
                        "v": {"__spear__": "enum", "type": "os:system", "value": "id"}
                    },
                }
            )
            + "\n"
        )
        code = main(["stats", str(evil)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "repro" in err


class TestTraceCommand:
    def test_trace_renders_span_tree(self, trace_file, capsys):
        code = main(["trace", str(trace_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert 'GEN["verdict"]' in out
        assert re.search(r"\(\d+\.\d{2}s\)", out)
        assert "tokens=" in out

    def test_trace_timeline_shows_lifecycle(self, trace_file, capsys):
        code = main(["trace", str(trace_file), "--timeline"])
        assert code == 0
        out = capsys.readouterr().out
        assert '<GEN["verdict"]>' in out
        assert '</GEN["verdict"]>' in out

    def test_trace_empty_trace_clean_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n\n", encoding="utf-8")  # blank lines only
        code = main(["trace", str(empty)])
        assert code == 1
        captured = capsys.readouterr()
        err_lines = [ln for ln in captured.err.splitlines() if ln.strip()]
        assert len(err_lines) == 1
        assert "error:" in err_lines[0]
        assert "Traceback" not in captured.err

    def test_trace_truncated_trace_clean_error(self, trace_file, capsys):
        text = trace_file.read_text(encoding="utf-8")
        trace_file.write_text(text[: len(text) - 20], encoding="utf-8")
        code = main(["trace", str(trace_file)])
        assert code == 1
        captured = capsys.readouterr()
        err_lines = [ln for ln in captured.err.splitlines() if ln.strip()]
        assert len(err_lines) == 1
        assert "error:" in err_lines[0]
        assert "truncated" in err_lines[0]
        assert "Traceback" not in captured.err


class TestExperimentsCommand:
    def test_table3_small_run(self, capsys):
        code = main(["experiments", "table3", "--n", "40"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 3 (reproduced)" in out
        assert "Auto Refinement" in out


class TestExperimentsFigure1Command:
    def test_figure1_runs_and_prints_all_points(self, capsys):
        code = main(["experiments", "figure1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 1 (reproduced)" in out
        for model in ("qwen2.5-7b-instruct", "mistral-7b-instruct", "gpt-4o-mini"):
            assert out.count(model) == 2  # both fusion orders per model


class TestCheckCommand:
    FIXTURES = Path(__file__).parent / "fixtures" / "dl"

    def test_clean_fixture_exits_zero(self, capsys):
        code = main(["check", str(self.FIXTURES / "clean_pipeline.spear")])
        assert code == 0
        out = capsys.readouterr().out
        assert ": ok" in out
        assert "checked 1 target(s): 0 error(s)" in out

    def test_buggy_fixture_exits_one_with_codes(self, capsys):
        code = main(["check", str(self.FIXTURES / "buggy_pipeline.spear")])
        assert code == 1
        out = capsys.readouterr().out
        for expected in ("SPEAR101", "SPEAR112", "SPEAR131", "SPEAR142"):
            assert expected in out
        assert "buggy_pipeline.spear:" in out  # spans rendered

    def test_json_format_is_machine_readable(self, capsys):
        code = main(
            [
                "check",
                str(self.FIXTURES / "buggy_pipeline.spear"),
                "--format",
                "json",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] > 0
        (run,) = payload["runs"]
        assert run["target"].endswith("buggy_pipeline.spear")
        codes = {d["code"] for d in run["diagnostics"]}
        assert "SPEAR101" in codes
        for diagnostic in run["diagnostics"]:
            assert {"code", "severity", "message"} <= diagnostic.keys()

    def test_inline_dl_flag(self, capsys):
        code = main(["check", "--dl", 'pipeline p { GEN["a", prompt="x"] }'])
        assert code == 1
        out = capsys.readouterr().out
        assert "<dl:0>" in out
        assert "SPEAR101" in out

    def test_python_file_targets_collected(self, tmp_path, capsys):
        module = tmp_path / "pipelines.py"
        module.write_text(
            "from repro.core import GEN, Pipeline\n"
            "SOURCE = 'pipeline p { REF[CREATE, \"t\", key=\"qa\"] "
            'GEN["a", prompt="qa"] }\'\n'
            "broken = Pipeline([GEN('x', prompt='ghost')], name='broken')\n",
            encoding="utf-8",
        )
        code = main(["check", str(module)])
        assert code == 1
        out = capsys.readouterr().out
        assert "::SOURCE" in out
        assert "broken" in out
        assert "SPEAR101" in out

    def test_nothing_to_check_exits_two(self, capsys):
        code = main(["check"])
        assert code == 2
        assert "nothing to check" in capsys.readouterr().err

    def test_bad_enum_argument_reported_not_raised(self, capsys):
        code = main(["check", str(self.FIXTURES / "bad_enum_pipeline.spear")])
        assert code == 1
        out = capsys.readouterr().out
        assert "bad_enum_pipeline.spear:7:3: SPEAR002" in out
        assert "mode='bogus' must be one of MANUAL, ASSISTED, AUTO" in out

    def test_syntax_error_reported_not_raised(self, tmp_path, capsys):
        bad = tmp_path / "bad.spear"
        bad.write_text("pipeline p { GEN[", encoding="utf-8")
        code = main(["check", str(bad)])
        assert code == 1
        assert "SPEAR001" in capsys.readouterr().out

    def test_examples_are_clean(self, capsys):
        examples = Path(__file__).parent.parent / "examples"
        code = main(
            [
                "check",
                str(examples / "enoxaparin_qa.spear"),
                str(examples / "spear_dl_demo.py"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out


@pytest.fixture
def ledger_root(tmp_path):
    """A ledger root holding one completed same-seed run."""
    from tests.obs.test_ledger import make_executor, make_pipeline

    root = tmp_path / "runs"
    executor = make_executor(root)
    state = executor.new_state()
    executor.run(make_pipeline(state), state=state)
    return root


class TestRunsCommand:
    def test_runs_lists_completed_runs(self, ledger_root, capsys):
        code = main(["runs", str(ledger_root)])
        assert code == 0
        out = capsys.readouterr().out
        assert "000001" in out
        assert "completed" in out
        assert "Executor" in out

    def test_runs_empty_root(self, tmp_path, capsys):
        code = main(["runs", str(tmp_path / "nowhere")])
        assert code == 0
        assert "no runs" in capsys.readouterr().out

    def test_runs_detail_renders_stats(self, ledger_root, capsys):
        code = main(["runs", str(ledger_root), "--run", "000001"])
        assert code == 0
        out = capsys.readouterr().out
        assert "run 000001 [completed]" in out
        assert "Per-operator rollup" in out

    def test_runs_detail_json(self, ledger_root, capsys):
        code = main(["runs", str(ledger_root), "--run", "000001", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["manifest"]["status"] == "completed"
        assert payload["report"]["totals"]["gen_calls"] == 2
        assert payload["attribution"]["totals"]["attributed_calls"] == 2

    def test_runs_unknown_run_clean_error(self, ledger_root, capsys):
        code = main(["runs", str(ledger_root), "--run", "000042"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "000042" in err
        assert "Traceback" not in err


class TestDiffCommand:
    @staticmethod
    def _second_root(tmp_path):
        from tests.obs.test_ledger import make_executor, make_pipeline

        root = tmp_path / "runs_b"
        executor = make_executor(root)
        state = executor.new_state()
        executor.run(make_pipeline(state), state=state)
        return root

    @staticmethod
    def _inflate_report(run_dir, factor=1.1):
        """A seeded-regression fixture: same run, costs inflated."""
        report_path = run_dir / "report.json"
        report = json.loads(report_path.read_text(encoding="utf-8"))
        totals = report["totals"]
        totals["cost_usd"] = round(totals["cost_usd"] * factor, 6)
        totals["prompt_tokens"] = int(totals["prompt_tokens"] * factor)
        report_path.write_text(json.dumps(report, indent=2) + "\n")

    def test_same_seed_runs_diff_to_zero(self, ledger_root, tmp_path, capsys):
        other = self._second_root(tmp_path)
        code = main(
            ["diff", str(ledger_root / "000001"), str(other / "000001")]
        )
        assert code == 0
        assert "no differences (zero delta)" in capsys.readouterr().out

    def test_gate_passes_on_zero_delta(self, ledger_root, tmp_path, capsys):
        other = self._second_root(tmp_path)
        code = main(
            [
                "diff",
                str(ledger_root / "000001"),
                str(other / "000001"),
                "--gate",
            ]
        )
        assert code == 0
        assert "gate passed" in capsys.readouterr().out

    def test_gate_fails_on_seeded_regression(self, ledger_root, tmp_path, capsys):
        import shutil

        regressed = tmp_path / "regressed"
        shutil.copytree(ledger_root / "000001", regressed)
        self._inflate_report(regressed)
        code = main(
            ["diff", str(ledger_root / "000001"), str(regressed), "--gate"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "GATE FAILED" in captured.err
        assert "totals.cost_usd" in captured.err
        # The changed-metric table still prints on stdout.
        assert "totals.prompt_tokens" in captured.out

    def test_max_regress_tolerates_small_regressions(
        self, ledger_root, tmp_path, capsys
    ):
        import shutil

        regressed = tmp_path / "regressed"
        shutil.copytree(ledger_root / "000001", regressed)
        self._inflate_report(regressed, factor=1.05)
        code = main(
            [
                "diff",
                str(ledger_root / "000001"),
                str(regressed),
                "--gate",
                "--max-regress",
                "20",
            ]
        )
        assert code == 0
        assert "gate passed" in capsys.readouterr().out

    def test_diff_json_format(self, ledger_root, tmp_path, capsys):
        import shutil

        regressed = tmp_path / "regressed"
        shutil.copytree(ledger_root / "000001", regressed)
        self._inflate_report(regressed)
        code = main(
            [
                "diff",
                str(ledger_root / "000001"),
                str(regressed),
                "--gate",
                "--format",
                "json",
            ]
        )
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["gate"]["enabled"] is True
        failing = {row["metric"] for row in payload["gate"]["failures"]}
        assert "totals.cost_usd" in failing
        assert any(
            row["metric"].startswith("report.totals") for row in payload["changed"]
        )

    def test_diff_non_run_path_clean_error(self, ledger_root, tmp_path, capsys):
        code = main(["diff", str(ledger_root / "000001"), str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "manifest.json" in err
        assert "Traceback" not in err


class TestTopCommand:
    def test_top_once_renders_leaderboard(self, ledger_root, capsys):
        code = main(["top", str(ledger_root), "--once"])
        assert code == 0
        out = capsys.readouterr().out
        assert "spear top — run 000001 [completed]" in out
        assert "Prompt leaderboard" in out
        assert "qa@v" in out

    def test_top_accepts_single_run_directory(self, ledger_root, capsys):
        code = main(["top", str(ledger_root / "000001"), "--once"])
        assert code == 0
        assert "run 000001" in capsys.readouterr().out

    def test_top_exits_when_run_completes(self, ledger_root, capsys):
        # Not --once: the loop must still terminate because the run's
        # manifest already says completed.
        code = main(["top", str(ledger_root)])
        assert code == 0

    def test_top_empty_root_clean_error(self, tmp_path, capsys):
        code = main(["top", str(tmp_path), "--once"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "no ledger runs" in err
        assert "Traceback" not in err

    def test_top_tolerates_partial_trailing_line(self, ledger_root, capsys):
        events = ledger_root / "000001" / "events.jsonl"
        with events.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "generate", "at": 9')  # no newline
        code = main(["top", str(ledger_root), "--once"])
        assert code == 0
        assert "Prompt leaderboard" in capsys.readouterr().out


class TestServeCommand:
    def test_serve_table_output(self, capsys):
        code = main(
            [
                "serve",
                "--tenants", "2",
                "--workers", "2",
                "--queue-limit", "2",
                "--corpus", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "served 4/4 requests across 2 tenants" in out
        assert "shed 0 (0.0%)" in out
        assert "tenant-0" in out and "tenant-1" in out

    def test_serve_overload_json(self, capsys):
        code = main(
            [
                "serve",
                "--tenants", "2",
                "--workers", "2",
                "--queue-limit", "2",
                "--overload", "3",
                "--corpus", "4",
                "--format", "json",
            ]
        )
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["submitted"] == 12
        assert metrics["served"] == 4
        assert metrics["shed"] == 8
        assert metrics["errors"] == 0
