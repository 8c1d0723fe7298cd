"""Tests for the ``pepo bench chaos`` fault-tolerance harness."""

import json

from repro.bench.chaos import (
    ChaosBenchResult,
    render_chaos_bench,
    run_chaos_bench,
    write_quarantine_report,
)
from repro.bench.harness import write_bench_json


def tiny_run() -> ChaosBenchResult:
    # Serial keeps the run fast: the chaos matrix itself is exercised
    # at --jobs 4 in tests/sweep/test_supervisor.py; here we pin the
    # bench harness plumbing.
    return run_chaos_bench(jobs=1, healthy_files=3, timeout_seconds=0.3)


class TestChaosBench:
    def test_every_criterion_passes(self):
        result = tiny_run()
        assert result.checks
        assert result.meets_target(), result.checks

    def test_quarantine_roster_is_exact(self):
        result = tiny_run()
        assert result.quarantined == {
            "crash_me.py": "crash",
            "hang_me.py": "hang",
        }

    def test_render_lists_criteria_and_verdict(self):
        result = tiny_run()
        rendered = render_chaos_bench(result)
        assert "quarantine_exact" in rendered
        assert "resume_byte_identical" in rendered
        assert "chaos bench: PASS" in rendered

    def test_json_round_trip(self, tmp_path):
        result = tiny_run()
        output = write_bench_json(result, tmp_path / "BENCH_chaos.json")
        write_quarantine_report(result, output)
        payload = json.loads(output.read_text())
        assert payload["bench"] == "chaos"
        assert payload["passed"] is True
        assert set(payload["checks"]) == set(result.checks)
        assert payload["stats"]["quarantined"] == 2
        assert (tmp_path / "BENCH_chaos_quarantine.json").exists()

    def test_failed_check_fails_the_bench(self):
        result = ChaosBenchResult(
            files=3,
            jobs=1,
            quarantined={},
            checks={"quarantine_exact": False},
            stats={"retries": 0, "pool_restarts": 0, "timeouts": 0,
                   "quarantined": 0},
            elapsed_s=0.1,
        )
        assert not result.meets_target()
        assert "FAIL" in render_chaos_bench(result)
