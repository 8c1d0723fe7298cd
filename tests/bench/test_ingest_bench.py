"""Ingest bench: shape, parity gating, and a tiny end-to-end run."""

import json

import pytest

np = pytest.importorskip("numpy")

import dataclasses

from repro.bench.harness import write_bench_json
from repro.bench.ingest import (
    TARGET_SPEEDUP,
    IngestBenchResult,
    render_ingest_bench,
    run_ingest_bench,
)


@pytest.fixture(scope="module")
def result():
    # Small enough to stay fast in CI; the real perf gate is the
    # workflow's --quick --check run at 150k records.
    return run_ingest_bench(records=5_000)


class TestRunIngestBench:
    def test_parity_and_counts(self, result):
        assert result.records == 5_000
        assert result.parity_ok
        assert result.ingest_rows_per_s > 0
        assert result.segment_bytes > 0

    def test_to_dict_round_trips(self, result):
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["bench"] == "ingest"
        assert payload["records"] == 5_000
        assert payload["parity_ok"] is True
        assert payload["target_speedup"] == TARGET_SPEEDUP

    def test_render(self, result):
        text = render_ingest_bench(result)
        assert "fold + aggregates" in text
        assert "rows/s" in text

    def test_write(self, result, tmp_path):
        out = write_bench_json(result, tmp_path / "BENCH_ingest.json")
        assert json.loads(out.read_text())["bench"] == "ingest"


class TestTargetGate:
    def test_parity_failure_fails_target(self, result):
        broken = dataclasses.replace(result, parity_ok=False)
        assert not broken.meets_target()
        assert "INGEST BENCH FAILED" in render_ingest_bench(broken)

    def test_slow_aggregate_fails_target(self):
        slow = IngestBenchResult(
            python="3.11.0",
            records=100,
            pure_aggregate_s=1.0,
            columns_build_s=0.1,
            vector_aggregate_s=0.5,  # only 2x
            ingest_s=0.1,
            ingest_rows_per_s=1000.0,
            segment_bytes=10,
            parity_ok=True,
        )
        assert slow.aggregate_speedup == pytest.approx(2.0)
        assert not slow.meets_target()
