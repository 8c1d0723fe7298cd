"""Tiny-size runs of every workload, untraced and traced."""

import argparse

import pytest

from pepobench import cli, cold_project, edit_loop, metrics, profile_history

#: Layers each workload must exercise in its traced run (non-zero there).
EXERCISED = {
    "cold-project": (
        "analyzer.parse_ms_per_kloc",
        "analyzer.ms_per_kloc",
        "analyzer.file_max_ms",
        "rules.R04_GLOBAL_IN_LOOP.ms_per_kloc",
        "semantics.ms_per_kloc",
        "semantics.flow_ms_per_kloc",
        "sweep.serial_s",
        "sweep.parallel_s",
        "check.sarif_ms",
        "optimizer.ms_per_kloc",
    ),
    "edit-loop": (
        "sweep.walk_hash_ms",
        "sweep.cache.hit_ratio",
        "sweep.cache.fill_s",
        "check.evaluate_ms",
        "analyzer.dynamic_update_ms",
        "semantics.ms_per_kloc",
    ),
    "profile-history": (
        "rapl.snapshot_us",
        "rapl.delta_us",
        "profiler.instrument_ms",
        "profiler.probe_run_s",
        "profiler.traced_run_s",
        "profiler.tracer_stop_ms",
        "profiler.records",
        "profiler.write_result_ms",
        "profiler.read_result_ms",
        "profiler.aggregate_ms",
        "store.ingest_rows_per_s",
        "store.segment_bytes",
        "store.top_methods_ms",
        "store.drift_ms",
        "views.dashboard_ms",
        "views.profiler_view_ms",
    ),
}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(cli, "SETUP_REPEATS", 1)
    monkeypatch.setattr(cli, "MIN_OPS", 3)
    monkeypatch.setattr(cold_project, "POOL_FILES", 4)
    monkeypatch.setattr(cold_project, "SUBPROJECTS", 2)
    monkeypatch.setattr(cold_project, "PROBE_SUBPROJECTS", 1)
    monkeypatch.setattr(edit_loop, "FILES", 6)
    monkeypatch.setattr(edit_loop, "TARGETS", 3)
    monkeypatch.setattr(edit_loop, "ALL_HIT_SWEEPS", 1)
    monkeypatch.setattr(profile_history, "TARGET_CALLS", 120)
    monkeypatch.setattr(profile_history, "SNAPSHOTS", 50)
    monkeypatch.setattr(profile_history, "PROBE_REPEATS", 1)
    cli.attach_program(cli.repo_root())


@pytest.mark.parametrize("workload", sorted(EXERCISED))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run(tiny, tmp_path, capsys, workload, trace):
    args = argparse.Namespace(workload=workload, seed=4, seconds=0.0, trace=trace)
    outcome = cli.run(args, out_dir=tmp_path)
    assert outcome["correct"], capsys.readouterr().out
    assert outcome["failed"] == 0
    assert outcome["attempted"] >= 3
    expected = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert list(outcome["metrics"]) == list(expected)
    for name, metric in outcome["metrics"].items():
        assert isinstance(metric["value"], float)
        assert metric["unit"] == expected[name][0]
    if trace:
        for name in EXERCISED[workload]:
            assert outcome["metrics"][name]["value"] > 0, name
        assert (tmp_path / "results" / f"{workload}-seed4.spans.json").is_file()
    else:
        assert all(m["value"] > 0 for m in outcome["metrics"].values())
    assert not [p for p in tmp_path.iterdir() if p.name.startswith("work-")]
