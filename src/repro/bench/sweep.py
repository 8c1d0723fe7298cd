"""``pepo bench sweep`` — measure the project-sweep engine on this repo.

Four configurations of the analyzer sweep over ``src/repro`` (or any
project directory):

* ``serial_cold``    — the engine at :data:`REFERENCE_COMMIT`, the last
  commit before the cold-sweep overhaul (eager semantic models,
  recursive walk, no pre-filter): one process, no cache.  Its
  ``src/repro`` is extracted with ``git archive`` and run in a fresh
  interpreter that imports nothing from the live tree, so no change to
  the live engine can speed the baseline too;
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
not asserted.  Every run is also a differential test: the live
configurations must agree with each other exactly, and with the
reference commit's findings for every rule whose ``(rule_id,
version)`` is the same on both sides (a rule whose version was bumped
since is left out of that comparison and named in the output).  A
pre-filter/laziness/merge soundness regression therefore fails the
bench.  The bench needs the repository's git history; without the
reference commit it exits with a one-line error rather than passing.
``--check`` additionally gates ``parallel_cold`` at
:data:`MIN_PARALLEL_SPEEDUP` over the reference; ``--profile`` writes
a per-stage cProfile report of the live configurations to
``BENCH_sweep_profile.txt``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.bench.harness import best_of, default_project_dir, reference_tree
from repro.views.tables import render_table

#: Default output path, relative to the working directory.
DEFAULT_OUTPUT = Path("BENCH_sweep.json")

#: Default ``--profile`` artifact path.
PROFILE_OUTPUT = Path("BENCH_sweep_profile.txt")

#: ``--check`` floor: a cold parallel sweep must beat the reference
#: serial baseline by at least this factor.
MIN_PARALLEL_SPEEDUP = 2.0

#: The measured baseline: the last commit before the cold-sweep
#: overhaul.  Its engine runs from a ``git archive`` of this commit.
REFERENCE_COMMIT = "749febe163cabc332711e447d68dd6f3dcb09ec5"

# Runs in ``python -I`` with the extracted reference tree first on
# sys.path: times the old engine's serial sweep (best of ``repeats``)
# and prints the time, its findings and its rule versions as JSON.
_REFERENCE_SCRIPT = """\
import json, sys, time
from pathlib import Path

tree, project, repeats = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])
sys.path.insert(0, str(tree))
import repro
from repro.analyzer import Analyzer
from repro.rules import REGISTRY

assert Path(repro.__file__).resolve().is_relative_to(tree), repro.__file__
best = float("inf")
for _ in range(max(1, repeats)):
    start = time.perf_counter()
    found = Analyzer().analyze_project(project)
    best = min(best, time.perf_counter() - start)
json.dump({
    "seconds": best,
    "repro_file": repro.__file__,
    "findings": {p: [f.to_dict() for f in fs] for p, fs in found.items()},
    "versions": {c.rule_id: c.version for c in REGISTRY.detector_classes()},
}, sys.stdout)
"""


@dataclass(frozen=True)
class ReferenceRun:
    """What the engine at :data:`REFERENCE_COMMIT` reported."""

    seconds: float
    findings: dict[str, list[dict]]
    versions: dict[str, int]
    repro_file: str
    tree: str


def run_reference(project: Path, repeats: int) -> ReferenceRun:
    """Sweep ``project`` with :data:`REFERENCE_COMMIT`'s engine in a
    fresh interpreter.

    Raises :class:`SystemExit` with a one-line message when the commit
    cannot be read (see :func:`repro.bench.harness.reference_tree`).
    """
    with reference_tree("sweep", REFERENCE_COMMIT) as tree:
        child = subprocess.run(
            [sys.executable, "-I", "-c", _REFERENCE_SCRIPT,
             str(tree), str(project), str(repeats)],
            capture_output=True,
            text=True,
        )
    if child.returncode != 0:
        raise RuntimeError(
            f"reference engine at {REFERENCE_COMMIT} failed:\n{child.stderr}"
        )
    return ReferenceRun(tree=str(tree), **json.loads(child.stdout))


def _optimized_analyzer():
    """The shipped defaults (pre-filter on, lazy semantic layers)."""
    from repro.analyzer import Analyzer

    return Analyzer()


def _rows(findings: dict[str, list[dict]], rules: set[str]) -> dict:
    """``findings`` restricted to the rule ids in ``rules``."""
    return {
        path: [row for row in rows if row["rule"] in rules]
        for path, rows in findings.items()
    }


@dataclass(frozen=True)
class SweepBenchResult:
    """Timings (seconds) and bookkeeping for one bench run."""

    project: str
    files: int
    findings: int
    jobs: int
    timings: dict[str, float]
    deterministic: bool
    #: Rules left out of the reference comparison because their
    #: ``(rule_id, version)`` differs from the reference commit's.
    unshared_rules: tuple[str, ...] = ()

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
    from repro.rules import REGISTRY
    from repro.sweep import clamp_jobs

    project = Path(project_dir) if project_dir else default_project_dir()
    jobs = clamp_jobs(jobs)

    reference = run_reference(project, repeats)
    timings: dict[str, float] = {"serial_cold": reference.seconds}
    timings["parallel_cold"], parallel = best_of(
        repeats,
        lambda: _optimized_analyzer().analyze_project(project, jobs=jobs),
    )
    # Agreement with the pre-overhaul engine proves parallel merge
    # determinism AND end-to-end soundness of every hot-path
    # optimization (pre-filter, lazy layers, fused walk, wire format)
    # on a real corpus, every bench run — for every rule unchanged
    # since the reference commit.
    versions = {
        cls.rule_id: cls.version for cls in REGISTRY.detector_classes()
    }
    shared = {
        rule_id
        for rule_id, version in versions.items()
        if reference.versions.get(rule_id) == version
    }
    live_rows = {
        path: [finding.to_dict() for finding in found]
        for path, found in parallel.items()
    }
    deterministic = _rows(live_rows, shared) == _rows(
        reference.findings, shared
    )

    with tempfile.TemporaryDirectory(prefix="pepo-bench-cache-") as cache_dir:

        def cached() -> dict:
            return _optimized_analyzer().analyze_project(
                project, cache=True, cache_dir=cache_dir
            )

        timings["cache_cold"], cold = best_of(1, cached)
        timings["cache_warm"], warm = best_of(repeats, cached)
        deterministic = deterministic and cold == parallel and warm == parallel

    return SweepBenchResult(
        project=str(project),
        files=len(parallel),
        findings=sum(len(v) for v in parallel.values()),
        jobs=jobs,
        timings=timings,
        deterministic=deterministic,
        unshared_rules=tuple(
            sorted((set(versions) | set(reference.versions)) - shared)
        ),
    )


def profile_sweep_bench(
    project_dir: str | Path | None = None,
    jobs: int = 2,
    top: int = 25,
) -> str:
    """cProfile one run of each live sweep stage; returns the report
    text.  ``serial_cold`` is left out: a frozen commit's profile
    diagnoses nothing.

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
    lines = [table, determinism, gate]
    if result.unshared_rules:
        lines.append(
            "not compared with the reference (rule version changed since "
            f"{REFERENCE_COMMIT[:7]}): {', '.join(result.unshared_rules)}"
        )
    return "\n".join(lines)
