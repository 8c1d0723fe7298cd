"""``pepo bench sweep`` — measure the project-sweep engine on this repo.

Four configurations of the analyzer sweep over ``src/repro`` (or any
project directory):

* ``serial_cold``    — one process, no cache, running
  :class:`repro.unopt.analyzer.ReferenceAnalyzer`: the pre-overhaul
  pipeline (eager semantic models, recursive walk, no pre-filter),
  vendored so in-place optimizations to the live engine cannot
  silently speed the baseline too;
* ``parallel_cold``  — ``--jobs N`` worker processes, no cache, with
  the full cold-sweep hot path (trigger pre-filter, lazy semantic
  layers, fused traversal, chunked dispatch, compact wire format);
* ``cache_cold``     — serial with a fresh cache (analysis + hashing +
  cache writes: the first sweep of an edit loop);
* ``cache_warm``     — serial against the populated cache (the steady
  state: every file a content-hash hit).

``--jobs`` is capped at the usable CPU count
(:func:`repro.sweep.clamp_jobs`): extra workers on a small box measure
process churn, not the engine.

Results go to ``BENCH_sweep.json`` so the perf trajectory is measured,
not asserted.  Every optimized configuration is also checked for
byte-identical findings against the reference analyzer — each bench
run doubles as a differential test of the whole optimized pipeline, so
a pre-filter/laziness/merge soundness regression fails the bench
before any timing is reported.  ``--check`` additionally gates
``parallel_cold`` at :data:`MIN_PARALLEL_SPEEDUP` over the baseline;
``--profile`` writes a per-stage cProfile report to
``BENCH_sweep_profile.txt``.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.bench.harness import best_of, default_project_dir
from repro.views.tables import render_table

#: Default output path, relative to the working directory.
DEFAULT_OUTPUT = Path("BENCH_sweep.json")

#: Default ``--profile`` artifact path.
PROFILE_OUTPUT = Path("BENCH_sweep_profile.txt")

#: ``--check`` floor: a cold parallel sweep must beat the reference
#: serial baseline by at least this factor.
MIN_PARALLEL_SPEEDUP = 2.0


def _baseline_analyzer():
    """The vendored pre-overhaul pipeline (see :mod:`repro.unopt`)."""
    from repro.unopt.analyzer import ReferenceAnalyzer

    return ReferenceAnalyzer()


def _optimized_analyzer():
    """The shipped defaults (pre-filter on, lazy semantic layers)."""
    from repro.analyzer import Analyzer

    return Analyzer()


@dataclass(frozen=True)
class SweepBenchResult:
    """Timings (seconds) and bookkeeping for one bench run."""

    project: str
    files: int
    findings: int
    jobs: int
    timings: dict[str, float]
    deterministic: bool

    def speedups(self) -> dict[str, float]:
        """Each configuration's speedup over the cold serial sweep."""
        base = self.timings["serial_cold"]
        return {
            name: (base / seconds if seconds > 0 else float("inf"))
            for name, seconds in self.timings.items()
            if name != "serial_cold"
        }

    def meets_target(self) -> bool:
        """The ``--check`` gate: identical findings everywhere, and the
        cold parallel sweep at least :data:`MIN_PARALLEL_SPEEDUP` times
        faster than the reference serial baseline."""
        return (
            self.deterministic
            and self.speedups().get("parallel_cold", 0.0)
            >= MIN_PARALLEL_SPEEDUP
        )

    def to_dict(self) -> dict:
        return {
            "bench": "sweep",
            "project": self.project,
            "files": self.files,
            "findings": self.findings,
            "jobs": self.jobs,
            "timings_s": {k: round(v, 6) for k, v in self.timings.items()},
            "speedups_vs_serial_cold": {
                k: round(v, 2) for k, v in self.speedups().items()
            },
            "min_parallel_speedup": MIN_PARALLEL_SPEEDUP,
            "deterministic": self.deterministic,
            "meets_target": self.meets_target(),
        }


def run_sweep_bench(
    project_dir: str | Path | None = None,
    jobs: int = 2,
    repeats: int = 3,
) -> SweepBenchResult:
    """Run all four sweep configurations; best-of-``repeats`` timings.

    ``jobs`` is capped at the usable CPU count; the recorded ``jobs``
    field is the count actually used.
    """
    from repro.sweep import clamp_jobs

    project = Path(project_dir) if project_dir else default_project_dir()
    jobs = clamp_jobs(jobs)

    timings: dict[str, float] = {}
    timings["serial_cold"], serial = best_of(
        repeats, lambda: _baseline_analyzer().analyze_project(project)
    )
    timings["parallel_cold"], parallel = best_of(
        repeats,
        lambda: _optimized_analyzer().analyze_project(project, jobs=jobs),
    )
    # Equality against the vendored reference pipeline proves parallel
    # merge determinism AND end-to-end soundness of every hot-path
    # optimization (pre-filter, lazy layers, fused walk, wire format)
    # on a real corpus, every bench run.
    deterministic = serial == parallel

    with tempfile.TemporaryDirectory(prefix="pepo-bench-cache-") as cache_dir:

        def cached() -> dict:
            return _optimized_analyzer().analyze_project(
                project, cache=True, cache_dir=cache_dir
            )

        timings["cache_cold"], cold = best_of(1, cached)
        timings["cache_warm"], warm = best_of(repeats, cached)
        deterministic = deterministic and cold == serial and warm == serial

    return SweepBenchResult(
        project=str(project),
        files=len(serial),
        findings=sum(len(v) for v in serial.values()),
        jobs=jobs,
        timings=timings,
        deterministic=deterministic,
    )


def profile_sweep_bench(
    project_dir: str | Path | None = None,
    jobs: int = 2,
    top: int = 25,
) -> str:
    """cProfile one run of each sweep stage; returns the report text.

    Parallel stages profile the *parent* process only (submit, IPC,
    decode, merge) — worker CPU lives in child processes; use
    ``pepo suggest --jobs N --self-profile`` for worker-side
    attribution.  The report is what ``--profile`` writes to
    :data:`PROFILE_OUTPUT` and what CI uploads as an artifact.
    """
    import cProfile
    import io
    import pstats

    from repro.sweep import clamp_jobs

    project = Path(project_dir) if project_dir else default_project_dir()
    jobs = clamp_jobs(jobs)
    sections: list[str] = []

    def profiled(stage: str, run) -> None:
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            run()
        finally:
            profiler.disable()
        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.sort_stats("cumulative").print_stats(top)
        sections.append(f"===== {stage} =====\n{buffer.getvalue().rstrip()}")

    profiled(
        "serial_cold",
        lambda: _baseline_analyzer().analyze_project(project),
    )
    profiled(
        "parallel_cold (parent process)",
        lambda: _optimized_analyzer().analyze_project(project, jobs=jobs),
    )
    with tempfile.TemporaryDirectory(prefix="pepo-bench-cache-") as cache_dir:
        _optimized_analyzer().analyze_project(
            project, cache=True, cache_dir=cache_dir
        )
        profiled(
            "cache_warm",
            lambda: _optimized_analyzer().analyze_project(
                project, cache=True, cache_dir=cache_dir
            ),
        )
    return "\n\n".join(sections) + "\n"


def write_sweep_profile(
    report: str, output: str | Path = PROFILE_OUTPUT
) -> Path:
    output = Path(output)
    output.write_text(report, encoding="utf-8")
    return output


def render_sweep_bench(result: SweepBenchResult) -> str:
    speedups = result.speedups()
    rows = [("serial_cold", f"{result.timings['serial_cold'] * 1000:.1f}", "1.00x")]
    for name in ("parallel_cold", "cache_cold", "cache_warm"):
        rows.append(
            (name, f"{result.timings[name] * 1000:.1f}", f"{speedups[name]:.2f}x")
        )
    table = render_table(
        ("Configuration", "Time (ms)", "Speedup"),
        rows,
        title=f"Sweep bench — {result.files} files, "
        f"{result.findings} findings ({result.project})",
        right_align=(1, 2),
    )
    determinism = (
        "parallel + cached + pre-filtered output identical to the "
        "reference serial baseline"
        if result.deterministic
        else "DETERMINISM VIOLATION: parallel/cached output differs from serial"
    )
    gate = (
        f"parallel_cold speedup {speedups['parallel_cold']:.2f}x "
        f"(gate: >= {MIN_PARALLEL_SPEEDUP:.1f}x over the reference "
        "baseline)"
    )
    return f"{table}\n{determinism}\n{gate}"
