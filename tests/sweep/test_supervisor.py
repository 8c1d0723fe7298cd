"""Chaos matrix for the supervised sweep: hostile files must be
quarantined — with the right reason, after the right number of strikes,
under serial AND parallel execution — while every healthy file's output
stays byte-identical to an undisturbed sweep."""

import ast
import json

import pytest

from repro.analyzer import Analyzer
from repro.analyzer.rules.base import Rule
from repro.resilience import SweepFaultPlan
from repro.sweep import (
    QuarantineReport,
    SweepEngine,
    SweepOptions,
    SweepSupervisor,
)

DIRTY = (
    "def f(names):\n"
    "    out = ''\n"
    "    for n in names:\n"
    "        out += n\n"
    "    return out\n"
)

#: Fast chaos knobs: one retry (two strikes), short hang, short timeout.
FAST = dict(timeout_seconds=0.5, max_retries=1)


class BoomRule(Rule):
    """Raises on any source naming ``BOOM`` — an analyzer bug confined
    to one file.  Module-level so parallel workers can rebuild it."""

    rule_id = "X97_BOOM"
    interested_types = (ast.Name,)
    triggers = ("BOOM",)

    def check(self, node, ctx):
        raise ValueError(f"rule blew up on {ctx.filename}")


@pytest.fixture()
def project(tmp_path):
    for name in ("ok_a.py", "ok_b.py", "ok_c.py", "ok_d.py"):
        (tmp_path / name).write_text(DIRTY, encoding="utf-8")
    (tmp_path / "crash_me.py").write_text("a = 1\n", encoding="utf-8")
    (tmp_path / "hang_me.py").write_text("b = 2\n", encoding="utf-8")
    (tmp_path / "oom_me.py").write_text("c = 3\n", encoding="utf-8")
    return tmp_path


def _sweep(project, jobs, options):
    analyzer = Analyzer()
    results = analyzer.analyze_project(project, jobs=jobs, options=options)
    return results, analyzer.last_sweep_stats, analyzer.last_quarantine


def _as_bytes(findings_by_file) -> bytes:
    return json.dumps(
        {k: [f.to_dict() for f in v] for k, v in findings_by_file.items()}
    ).encode()


def _roster(quarantine):
    from pathlib import Path

    return sorted(
        (Path(e.path).name, e.reason, e.failures) for e in quarantine.entries
    )


class TestChaosMatrix:
    """The acceptance scenario: crash + hang + memory faults in one
    corpus, exercised serially and in parallel."""

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_hostile_corpus_completes_and_quarantines(self, project, jobs):
        plan = SweepFaultPlan(
            crash=("crash_me.py",),
            hang=("hang_me.py",),
            memory=("oom_me.py",),
            hang_seconds=8.0 if jobs > 1 else 0.6,
        )
        options = SweepOptions(faults=plan, **FAST)
        results, stats, quarantine = _sweep(project, jobs, options)

        # The sweep completed: every file present, hostile ones empty.
        assert len(results) == 7
        assert results[str(project / "crash_me.py")] == []
        assert results[str(project / "hang_me.py")] == []
        assert results[str(project / "oom_me.py")] == []
        # Exactly the hostile files, each with its own reason, each
        # after max_retries + 1 strikes.
        assert _roster(quarantine) == [
            ("crash_me.py", "crash", 2),
            ("hang_me.py", "hang", 2),
            ("oom_me.py", "memory", 2),
        ]
        # Serial and parallel sweeps share one strike path, so the
        # accounting is identical: one retry and two strikes per
        # hostile file, both of the hanger's strikes timeouts.
        assert (stats.quarantined, stats.retries, stats.timeouts) == (3, 3, 2)
        if jobs > 1:
            assert stats.pool_restarts >= 1
        # Healthy files are untouched by the chaos around them.
        baseline = Analyzer().analyze_project(project)
        for name in ("ok_a.py", "ok_b.py", "ok_c.py", "ok_d.py"):
            key = str(project / name)
            assert _as_bytes({key: results[key]}) == _as_bytes(
                {key: baseline[key]}
            )

    def test_parallel_output_matches_serial_under_chaos(self, project):
        plan = SweepFaultPlan(
            crash=("crash_me.py",), memory=("oom_me.py",)
        )
        options = SweepOptions(faults=plan, **FAST)
        serial, s_stats, q_serial = _sweep(project, 1, options)
        parallel, p_stats, q_parallel = _sweep(project, 4, options)
        assert _as_bytes(serial) == _as_bytes(parallel)
        assert _roster(q_serial) == _roster(q_parallel)
        for field in ("quarantined", "retries", "timeouts"):
            assert getattr(s_stats, field) == getattr(p_stats, field), field

    def test_rule_exception_quarantines_identically(self, project):
        (project / "boom_me.py").write_text("BOOM = 1\n", encoding="utf-8")
        options = SweepOptions(**FAST)
        rosters = {}
        for jobs in (1, 2):
            analyzer = Analyzer(rules=[BoomRule])
            results = analyzer.analyze_project(
                project, jobs=jobs, options=options
            )
            assert analyzer.last_sweep_stats.jobs == jobs
            assert results[str(project / "boom_me.py")] == []
            quarantine = analyzer.last_quarantine
            assert quarantine.entries[0].detail.startswith("ValueError: ")
            rosters[jobs] = _roster(quarantine)
        assert rosters[1] == [("boom_me.py", "error", 2)]
        assert rosters[2] == rosters[1]

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_recursion_fault_quarantines(self, project, jobs):
        plan = SweepFaultPlan(recursion=("ok_d.py",))
        options = SweepOptions(faults=plan, max_retries=0)
        results, _stats, quarantine = _sweep(project, jobs, options)
        assert _roster(quarantine) == [("ok_d.py", "recursion", 1)]
        assert results[str(project / "ok_d.py")] == []

    def test_clean_corpus_has_empty_quarantine(self, project):
        results, stats, quarantine = _sweep(
            project, 4, SweepOptions(**FAST)
        )
        assert len(quarantine) == 0
        assert stats.quarantined == 0
        assert stats.retries == 0
        assert len(results) == 7


class TestQuarantinePersistence:
    def test_report_written_then_cleared_by_clean_sweep(self, project):
        plan = SweepFaultPlan(crash=("crash_me.py",))
        _sweep(project, 1, SweepOptions(faults=plan, max_retries=0))
        report_path = project / ".pepo_cache" / "quarantine.json"
        assert report_path.exists()
        loaded = QuarantineReport.load(report_path)
        assert loaded.paths() == [str(project / "crash_me.py")]
        assert loaded.entries[0].reason == "crash"
        # A later healthy sweep must not leave the stale roster behind.
        _sweep(project, 1, SweepOptions())
        assert not report_path.exists()

    def test_report_listed_by_cache_stats(self, project):
        from repro.sweep import SweepCache

        plan = SweepFaultPlan(memory=("oom_me.py",))
        _sweep(project, 1, SweepOptions(faults=plan, max_retries=0))
        stats = SweepCache.for_project(project).stats()
        assert len(stats.quarantined) == 1
        assert "oom_me.py" in stats.render()
        assert "memory" in stats.render()

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "quarantine.json"
        path.write_text("{not json", encoding="utf-8")
        assert QuarantineReport.load(path) is None
        assert QuarantineReport.load(tmp_path / "missing.json") is None

    def test_render_tabulates_entries(self, project):
        plan = SweepFaultPlan(crash=("crash_me.py",))
        _, _, quarantine = _sweep(
            project, 1, SweepOptions(faults=plan, max_retries=0)
        )
        rendered = quarantine.render()
        assert "crash_me.py" in rendered
        assert "crash" in rendered


class TestSerialFallback:
    def test_unpicklable_job_records_reason(self, project):
        import ast

        from repro.analyzer.rules.base import Rule

        class LocalRule(Rule):  # closure-defined: cannot cross processes
            rule_id = "X98_LOCAL"
            interested_types = (ast.Mod,)

            def check(self, node, ctx):
                return iter(())

        analyzer = Analyzer(rules=[LocalRule])
        analyzer.analyze_project(project, jobs=4)
        stats = analyzer.last_sweep_stats
        assert stats.jobs == 1
        assert "not picklable" in stats.serial_fallback

    def test_picklable_job_has_no_fallback(self, project):
        analyzer = Analyzer()
        analyzer.analyze_project(project, jobs=2)
        assert analyzer.last_sweep_stats.serial_fallback is None


class TestOptionValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(timeout_seconds=0),
            dict(timeout_seconds=-1.0),
            dict(max_retries=-1),
        ],
    )
    def test_bad_options_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SweepOptions(**kwargs)

    def test_supervisor_with_no_items_returns_empty(self):
        supervisor = SweepSupervisor(Analyzer()._sweep_job(), workers=4)
        assert supervisor.run([]) == []


class TestOptimizerChaosParity:
    """Quarantine degrades optimizer sweeps to 'skipped', never to a
    crash or a partial rewrite."""

    def test_quarantined_file_is_skipped_not_rewritten(self, project):
        from repro.optimizer import Optimizer

        plan = SweepFaultPlan(crash=("ok_a.py",))
        optimizer = Optimizer()
        before = (project / "ok_a.py").read_text(encoding="utf-8")
        results = optimizer.optimize_project(
            project,
            write=True,
            jobs=2,
            options=SweepOptions(faults=plan, max_retries=0),
        )
        assert str(project / "ok_a.py") not in results
        assert (project / "ok_a.py").read_text(encoding="utf-8") == before
        assert optimizer.last_quarantine.paths() == [
            str(project / "ok_a.py")
        ]
        # The other dirty files were still optimized.
        assert results[str(project / "ok_b.py")].changed
