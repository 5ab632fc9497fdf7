"""The repro.api facade: complete, warning-clean, and aliased to the internals."""

import warnings

import repro.api as spear


class TestFacadeSurface:
    def test_all_names_resolve(self):
        for name in spear.__all__:
            assert getattr(spear, name) is not None, name

    def test_package_root_is_the_facade(self):
        import repro

        assert repro.__all__ == spear.__all__
        for name in spear.__all__:
            assert getattr(repro, name) is getattr(spear, name), name

    def test_no_duplicates(self):
        assert len(spear.__all__) == len(set(spear.__all__))

    def test_touching_every_name_is_deprecation_clean(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for name in spear.__all__:
                getattr(spear, name)

    def test_names_alias_the_internals(self):
        from repro.core import GEN, Pipeline
        from repro.llm.model import SimulatedLLM
        from repro.resilience.runtime import ResilienceRuntime
        from repro.runtime.executor import Executor
        from repro.runtime.options import RuntimeOptions

        assert spear.GEN is GEN
        assert spear.Pipeline is Pipeline
        assert spear.SimulatedLLM is SimulatedLLM
        assert spear.Executor is Executor
        assert spear.RuntimeOptions is RuntimeOptions
        assert spear.ResilienceRuntime is ResilienceRuntime

    def test_error_taxonomy_rooted_at_spear_error(self):
        for name in (
            "ModelError",
            "TransientModelError",
            "RateLimitError",
            "TimeoutError",
            "MalformedOutputError",
            "CircuitOpenError",
        ):
            assert issubclass(getattr(spear, name), spear.SpearError), name

    def test_static_analysis_exported(self):
        from repro.analysis import (
            CheckResult,
            Diagnostic,
            check_pipeline,
            check_program,
            check_state,
        )
        from repro.errors import SpearValidationError

        assert spear.check_pipeline is check_pipeline
        assert spear.check_program is check_program
        assert spear.check_state is check_state
        assert spear.Diagnostic is Diagnostic
        assert spear.CheckResult is CheckResult
        assert spear.SpearValidationError is SpearValidationError
        assert issubclass(spear.SpearValidationError, spear.SpearError)
        for name in (
            "check_pipeline",
            "check_program",
            "check_state",
            "Diagnostic",
            "CheckResult",
            "Severity",
            "SpearValidationError",
        ):
            assert name in spear.__all__, name

    def test_facade_check_round_trip(self):
        result = spear.check_pipeline(
            spear.Pipeline([spear.GEN("answer", prompt="ghost")])
        )
        assert result.has_errors
        assert "SPEAR101" in result.codes()


class TestFacadeQuickstart:
    def test_readme_quickstart_runs_warning_clean(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            llm = spear.SimulatedLLM()
            executor = spear.Executor(options=spear.RuntimeOptions(model=llm))
            result = executor.generate_once(
                "hello",
                "Summarize the tweet in at most 30 words.\nTweet:\ngreat day",
            )
        assert result.output("answer")

    def test_resilient_executor_via_facade(self):
        llm = spear.SimulatedLLM(
            enable_prefix_cache=False,
            fault_plan=spear.FaultPlan(
                3, default=spear.FaultSpec(transient_rate=1.0)
            ),
        )
        executor = spear.Executor(
            options=spear.RuntimeOptions(
                model=llm,
                resilience=spear.ResilienceRuntime(
                    retry=spear.RetryPolicy(max_attempts=2, jitter=0.0),
                    fallback=spear.FallbackChain(
                        (spear.StaticFallback("degraded"),)
                    ),
                ),
            )
        )
        result = executor.generate_once(
            "hello",
            "Summarize the tweet in at most 30 words.\nTweet:\ngreat day",
        )
        assert result.output("answer") == "degraded"
        assert result.state.metadata["degraded"] is True
