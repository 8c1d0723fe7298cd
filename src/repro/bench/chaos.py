"""``pepo bench chaos`` — the fault-tolerance acceptance harness.

Builds a synthetic corpus of healthy files plus three hostile ones —
one that crashes its worker, one that hangs past the sweep timeout,
one whose cache entry is corrupted after every write — then drives the
supervised sweep through the full chaos matrix:

* ``quarantine``   — a ``--jobs 4`` sweep over the hostile corpus must
  complete (exit 0) and quarantine *exactly* the hostile files, each
  with its own failure reason;
* ``determinism``  — the chaos sweep's findings must be byte-identical
  to a serial sweep of the same corpus under the same faults;
* ``resume``       — a sweep interrupted mid-flight must journal, and
  the resumed sweep's output must be byte-identical to an
  uninterrupted run;
* ``cache``        — the corrupted cache entry must be detected,
  evicted, and recomputed on the next sweep (no wrong answers, no
  crash).

Results go to ``BENCH_chaos.json``; ``--check`` turns any failed
criterion into a non-zero exit for CI.  Numpy-free by design: the
chaos smoke job runs on a bare interpreter.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.views.tables import render_table

#: Default output path, relative to the working directory.
DEFAULT_OUTPUT = Path("BENCH_chaos.json")

#: Healthy-file payload: enough structure to produce findings.
_HEALTHY = (
    "def build_{n}(names):\n"
    "    out = ''\n"
    "    for name in names:\n"
    "        out += name\n"
    "        r = len(name) % 8\n"
    "    return out\n"
)


@dataclass(frozen=True)
class ChaosBenchResult:
    """Outcome of one chaos-matrix run."""

    files: int
    jobs: int
    quarantined: dict[str, str]  # basename -> reason
    checks: dict[str, bool]
    stats: dict[str, int]
    elapsed_s: float
    #: Full per-file quarantine report from the hostile sweep (the CI
    #: artifact); ``None`` only for hand-built results in tests.
    report: "object | None" = None

    def meets_target(self) -> bool:
        return all(self.checks.values())

    def to_dict(self) -> dict:
        return {
            "bench": "chaos",
            "files": self.files,
            "jobs": self.jobs,
            "quarantined": self.quarantined,
            "checks": self.checks,
            "stats": self.stats,
            "elapsed_s": round(self.elapsed_s, 3),
            "passed": self.meets_target(),
        }


def _build_corpus(root: Path, healthy: int) -> None:
    for index in range(healthy):
        (root / f"mod_{index:02d}.py").write_text(
            _HEALTHY.format(n=index) + f"X = {index}\n", encoding="utf-8"
        )
    (root / "crash_me.py").write_text("a = 1\n", encoding="utf-8")
    (root / "hang_me.py").write_text("b = 2\n", encoding="utf-8")
    (root / "corrupt_me.py").write_text("c = 3\n", encoding="utf-8")


def _as_bytes(findings_by_file) -> bytes:
    return json.dumps(
        {
            k: [f.to_dict() for f in v]
            for k, v in sorted(findings_by_file.items())
        }
    ).encode()


def run_chaos_bench(
    jobs: int = 4, healthy_files: int = 8, timeout_seconds: float = 1.0
) -> ChaosBenchResult:
    from repro.analyzer import Analyzer
    from repro.resilience import SweepFaultPlan
    from repro.sweep import SweepInterrupted, SweepOptions

    plan = SweepFaultPlan(
        crash=("crash_me.py",),
        hang=("hang_me.py",),
        corrupt_cache=("corrupt_me.py",),
        # Far past the timeout in parallel mode (the watchdog must
        # fire); just past it serially (overruns detected post hoc).
        hang_seconds=30.0 if jobs > 1 else timeout_seconds * 1.2,
    )
    options = SweepOptions(
        timeout_seconds=timeout_seconds, max_retries=1, faults=plan
    )
    started = time.perf_counter()
    checks: dict[str, bool] = {}
    with tempfile.TemporaryDirectory(prefix="pepo-chaos-") as tmp:
        root = Path(tmp) / "corpus"
        root.mkdir()
        _build_corpus(root, healthy_files)

        # 1. quarantine: the hostile sweep completes, exactly the
        # crash/hang files quarantined, each with its own reason
        # (corrupt_me.py analyzes fine — its fault hits the cache).
        chaos = Analyzer()
        parallel = chaos.analyze_project(
            root, jobs=jobs, cache=True, options=options
        )
        roster = {
            Path(e.path).name: e.reason
            for e in chaos.last_quarantine.entries
        }
        checks["quarantine_exact"] = roster == {
            "crash_me.py": "crash",
            "hang_me.py": "hang",
        }
        checks["sweep_completed"] = len(parallel) == healthy_files + 3
        stats = chaos.last_sweep_stats

        # 2. determinism: byte-identical to a serial sweep under the
        # same faults (fresh serial-tuned plan, no cache interference).
        serial = Analyzer()
        serial_results = serial.analyze_project(
            root,
            jobs=1,
            options=SweepOptions(
                timeout_seconds=timeout_seconds,
                max_retries=1,
                faults=SweepFaultPlan(
                    crash=("crash_me.py",),
                    hang=("hang_me.py",),
                    hang_seconds=timeout_seconds * 1.2,
                ),
            ),
        )
        checks["parallel_matches_serial"] = _as_bytes(parallel) == _as_bytes(
            serial_results
        )

        # 3. cache integrity: corrupt_me.py's damaged entry is evicted
        # and recomputed, and the warm sweep still matches.
        warm = Analyzer()
        warm_results = warm.analyze_project(root, jobs=1, cache=True)
        checks["corruption_evicted"] = (
            warm.last_sweep_stats.cache_evictions >= 1
        )
        healthy_keys = [
            str(root / f"mod_{index:02d}.py") for index in range(healthy_files)
        ]
        checks["cache_matches_fresh"] = all(
            _as_bytes({k: warm_results[k]}) == _as_bytes({k: parallel[k]})
            for k in healthy_keys
        )

        # 4. resume: interrupt mid-sweep, journal, resume, compare.
        clean_root = Path(tmp) / "clean"
        clean_root.mkdir()
        _build_corpus(clean_root, healthy_files)
        for hostile in ("crash_me.py", "hang_me.py", "corrupt_me.py"):
            (clean_root / hostile).unlink()
        baseline = Analyzer().analyze_project(clean_root)
        interrupted = False
        try:
            Analyzer().analyze_project(
                clean_root,
                jobs=1,
                options=SweepOptions(
                    # Strictly mid-sweep: the interrupt check runs
                    # before each item, so the threshold must leave
                    # work outstanding.
                    faults=SweepFaultPlan(
                        interrupt_after_files=max(1, healthy_files // 2)
                    )
                ),
            )
        except SweepInterrupted:
            interrupted = True
        resumed = Analyzer().analyze_project(
            clean_root, jobs=1, options=SweepOptions(resume=True)
        )
        checks["interrupt_journaled"] = interrupted
        checks["resume_byte_identical"] = _as_bytes(resumed) == _as_bytes(
            baseline
        )
        shutil.rmtree(clean_root, ignore_errors=True)

    return ChaosBenchResult(
        files=healthy_files + 3,
        jobs=jobs,
        quarantined=roster,
        checks=checks,
        stats={
            "retries": stats.retries,
            "pool_restarts": stats.pool_restarts,
            "timeouts": stats.timeouts,
            "quarantined": stats.quarantined,
        },
        elapsed_s=time.perf_counter() - started,
        report=chaos.last_quarantine,
    )


def render_chaos_bench(result: ChaosBenchResult) -> str:
    rows = [
        [name, "PASS" if passed else "FAIL"]
        for name, passed in result.checks.items()
    ]
    table = render_table(
        headers=["Criterion", "Result"],
        rows=rows,
        title=(
            f"Chaos matrix: {result.files} files, --jobs {result.jobs}, "
            f"{result.elapsed_s:.1f}s"
        ),
    )
    roster = ", ".join(
        f"{name} ({reason})" for name, reason in sorted(result.quarantined.items())
    ) or "none"
    verdict = "PASS" if result.meets_target() else "FAIL"
    return (
        f"{table}\n"
        f"quarantined: {roster}\n"
        f"supervisor: {result.stats['retries']} retries, "
        f"{result.stats['pool_restarts']} pool restarts, "
        f"{result.stats['timeouts']} timeouts\n"
        f"chaos bench: {verdict}"
    )


def write_quarantine_report(
    result: ChaosBenchResult, output: str | Path
) -> None:
    """Export the full quarantine report next to the bench JSON, as
    ``<output stem>_quarantine.json``: the corpus lives in a temp dir,
    so the report must be exported to survive as a CI artifact."""
    if result.report is not None:
        output = Path(output)
        result.report.save(output.with_name(f"{output.stem}_quarantine.json"))
