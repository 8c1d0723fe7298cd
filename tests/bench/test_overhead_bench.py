"""Tests for the ``pepo bench overhead`` tracer-overhead benchmark.

Its ``legacy`` column runs the tracer at
:data:`repro.bench.overhead.REFERENCE_COMMIT` from a ``git archive``, so
the tests that run the bench need that commit in the git history.
"""

import json

import pytest

from repro.bench import overhead
from repro.bench.harness import write_bench_json
from repro.bench.overhead import (
    CONCURRENT_NOISE_FLOOR_S,
    CONCURRENT_WORKLOADS,
    CONFIGS,
    OverheadBenchResult,
    render_overhead_bench,
    run_overhead_bench,
)
from repro.profiler.runtime import MonitoringRuntime

needs_legacy = pytest.mark.reference_commit(overhead.REFERENCE_COMMIT)


def tiny_run() -> OverheadBenchResult:
    return run_overhead_bench(calls=200, repeats=1)


class TestOverheadBench:
    @needs_legacy
    def test_measures_every_workload_and_config(self):
        result = tiny_run()
        new_configs = {"settrace"} | (
            {"monitoring"} if MonitoringRuntime.available() else set()
        )
        expected = {"legacy"} | new_configs
        assert set(result.overhead_per_call) == {"bytecode", "c_call"} | set(
            CONCURRENT_WORKLOADS
        )
        for workload, configs in result.overhead_per_call.items():
            assert set(configs) == (
                new_configs if workload in CONCURRENT_WORKLOADS else expected
            )
            assert all(cost >= 0.0 for cost in configs.values())

    @needs_legacy
    def test_new_runtime_matches_interpreter(self):
        result = tiny_run()
        expected = (
            "monitoring" if MonitoringRuntime.available() else "settrace"
        )
        assert result.new_runtime == expected
        assert result.new_runtime in CONFIGS

    def test_speedups_are_relative_to_legacy(self):
        result = OverheadBenchResult(
            python="3.x",
            calls=100,
            repeats=1,
            baseline_s={"bytecode": 0.1},
            overhead_per_call={
                "bytecode": {
                    "legacy": 4e-6,
                    "settrace": 2e-6,
                    "monitoring": 0.0,
                }
            },
            new_runtime="monitoring",
        )
        speedups = result.speedups()["bytecode"]
        assert speedups["settrace"] == 2.0
        assert speedups["monitoring"] == float("inf")
        assert result.meets_target()

    def test_meets_target_detects_regression(self):
        result = OverheadBenchResult(
            python="3.x",
            calls=100,
            repeats=1,
            baseline_s={"bytecode": 0.1},
            overhead_per_call={
                "bytecode": {"legacy": 1e-6, "settrace": 2e-6}
            },
            new_runtime="settrace",
        )
        assert not result.meets_target()

    def test_concurrent_budget_gates_threaded_only(self):
        def make(threaded: float, async_cost: float) -> OverheadBenchResult:
            return OverheadBenchResult(
                python="3.x",
                calls=100,
                repeats=1,
                baseline_s={},
                overhead_per_call={
                    "bytecode_followed": {"settrace": 1e-6},
                    "threaded": {"settrace": threaded},
                    "asyncio": {"settrace": async_cost},
                },
                new_runtime="settrace",
            )

        limit = make(0.0, 0.0).concurrent_limit_s()
        assert limit == 2e-6 + CONCURRENT_NOISE_FLOOR_S
        # Threaded within budget passes even with a huge asyncio figure
        # (asyncio is informational, not gated).
        assert make(limit, 100e-6).meets_target()
        # Threaded over budget fails.
        assert not make(limit * 1.5, 0.0).meets_target()

    @needs_legacy
    def test_concurrent_workloads_have_no_legacy_speedup(self):
        result = tiny_run()
        speedups = result.speedups()
        for workload in CONCURRENT_WORKLOADS:
            assert workload not in speedups

    @needs_legacy
    def test_json_output_is_valid_and_finite(self, tmp_path):
        result = tiny_run()
        path = write_bench_json(result, tmp_path / "BENCH_overhead.json")
        data = json.loads(path.read_text())
        assert data["bench"] == "overhead"
        assert data["new_runtime"] == result.new_runtime
        assert "overhead_per_call_us" in data
        # Infinite speedups are serialized as null, never Infinity.
        assert "Infinity" not in path.read_text()

    @needs_legacy
    def test_render_mentions_every_config(self):
        result = tiny_run()
        rendered = render_overhead_bench(result)
        assert "legacy" in rendered
        assert "settrace" in rendered
        assert "Overhead/call" in rendered

    def test_unreadable_reference_commit_fails_in_one_line(self, monkeypatch):
        unknown = "0" * 40
        monkeypatch.setattr(overhead, "REFERENCE_COMMIT", unknown)
        with pytest.raises(SystemExit) as failure:
            tiny_run()
        message = str(failure.value)
        assert message.startswith("pepo bench overhead: ")
        assert unknown in message
        assert "git history" in message
        assert "\n" not in message

    @needs_legacy
    def test_edited_workload_fails_in_one_line(self, monkeypatch):
        # The legacy column times the pinned commit's workloads; a live
        # workload that no longer matches them would compare unlike runs.
        def bytecode_workload(n: int) -> int:
            return n

        monkeypatch.setitem(overhead.WORKLOADS, "bytecode", bytecode_workload)
        with pytest.raises(SystemExit) as failure:
            tiny_run()
        message = str(failure.value)
        assert message.startswith("pepo bench overhead: ")
        assert message.endswith(": bytecode_workload")
        assert overhead.REFERENCE_COMMIT in message
        assert "\n" not in message
