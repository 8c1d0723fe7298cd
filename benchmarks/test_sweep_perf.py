"""Sweep-engine performance harness (``pepo bench sweep`` as pytest).

Runs outside tier-1 (``testpaths = tests``); invoke explicitly::

    PYTHONPATH=src python -m pytest benchmarks/test_sweep_perf.py -q

Timing assertions are deliberately loose — CI boxes are noisy — but
the structural ones are strict: parallel and cached sweeps must return
byte-identical findings, and the warm cache must actually skip work.
"""

import json
import time

import pytest

from repro.analyzer import Analyzer
from repro.bench.harness import write_bench_json
from repro.bench.sweep import render_sweep_bench, run_sweep_bench
from repro.sweep import SweepEngine

N_FILES = 24

MODULE_TEMPLATE = """\
import re

LIMIT_{i} = {i}

def churn_{i}(rows):
    out = ''
    for row in rows:
        out += str(row % 10)
        pat = re.compile('x{i}')
        if pat.match(out) and LIMIT_{i}:
            total = 0.0
            for k in range(len(rows)):
                total += rows[k]
    return out
"""


@pytest.fixture(scope="module")
def synthetic_project(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep-perf")
    for i in range(N_FILES):
        (root / f"mod_{i:03d}.py").write_text(
            MODULE_TEMPLATE.format(i=i), encoding="utf-8"
        )
    return root


def test_warm_cache_skips_analysis(synthetic_project, tmp_path):
    cache_dir = tmp_path / "cache"
    analyzer = Analyzer()

    start = time.perf_counter()
    cold = analyzer.analyze_project(
        synthetic_project, cache=True, cache_dir=cache_dir
    )
    cold_s = time.perf_counter() - start

    engine = SweepEngine(cache=True, cache_dir=cache_dir)
    start = time.perf_counter()
    warm = engine.run(synthetic_project, analyzer._sweep_job())
    warm_s = time.perf_counter() - start

    assert engine.last_stats.cache_hits == N_FILES
    assert engine.last_stats.cache_misses == 0
    assert {k: [f.to_dict() for f in v] for k, v in cold.items()} == {
        k: [f.to_dict() for f in v] for k, v in warm.items()
    }
    # Loose wall-clock bound; the real ratio is recorded by the bench.
    assert warm_s < cold_s


def test_parallel_sweep_matches_serial(synthetic_project):
    serial = Analyzer().analyze_project(synthetic_project)
    parallel = Analyzer().analyze_project(synthetic_project, jobs=2)
    assert json.dumps(
        {k: [f.to_dict() for f in v] for k, v in serial.items()}
    ) == json.dumps(
        {k: [f.to_dict() for f in v] for k, v in parallel.items()}
    )
    assert sum(map(len, serial.values())) >= N_FILES  # rules actually fired


def test_bench_harness_writes_json(synthetic_project, tmp_path):
    result = run_sweep_bench(
        project_dir=synthetic_project, jobs=2, repeats=1
    )
    assert result.deterministic
    assert result.files == N_FILES
    assert set(result.timings) == {
        "serial_cold", "parallel_cold", "cache_cold", "cache_warm",
    }
    assert result.speedups()["cache_warm"] > 1.0

    output = write_bench_json(result, tmp_path / "BENCH_sweep.json")
    data = json.loads(output.read_text(encoding="utf-8"))
    assert data["bench"] == "sweep"
    assert data["deterministic"] is True
    assert data["files"] == N_FILES
    assert "cache_warm" in data["speedups_vs_serial_cold"]

    rendered = render_sweep_bench(result)
    assert "cache_warm" in rendered
    assert (
        "parallel + cached + pre-filtered output identical to the "
        "reference serial baseline"
    ) in rendered
