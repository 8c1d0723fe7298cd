"""Interrupted sweeps journal their completed work and resume to output
byte-identical with an uninterrupted run — the tentpole acceptance
criterion.  The deterministic ``interrupt_after_files`` fault stands in
for SIGINT so the matrix runs the same on every platform."""

import json

import pytest

from repro.analyzer import Analyzer
from repro.resilience import SweepFaultPlan
from repro.sweep import SweepInterrupted, SweepJournal, SweepOptions

DIRTY = (
    "def f(names):\n"
    "    out = ''\n"
    "    for n in names:\n"
    "        out += n\n"
    "    return out\n"
)


@pytest.fixture()
def project(tmp_path):
    for index in range(6):
        (tmp_path / f"mod_{index}.py").write_text(
            DIRTY + f"X = {index}\n", encoding="utf-8"
        )
    return tmp_path


def _as_bytes(findings_by_file) -> bytes:
    return json.dumps(
        {k: [f.to_dict() for f in v] for k, v in findings_by_file.items()}
    ).encode()


def _interrupt(project, jobs, after, **extra):
    """Run a sweep that self-interrupts after ``after`` files."""
    analyzer = Analyzer()
    options = SweepOptions(
        faults=SweepFaultPlan(interrupt_after_files=after), **extra
    )
    with pytest.raises(SweepInterrupted) as info:
        analyzer.analyze_project(project, jobs=jobs, options=options)
    return info.value


class TestInterrupt:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_interrupt_journals_and_raises(self, project, jobs):
        error = _interrupt(project, jobs, after=3)
        assert error.completed >= 3
        assert error.total == 6
        assert error.journal_path is not None
        assert error.journal_path.exists()
        assert "resume" not in str(error)  # hint belongs to the CLI
        journal = SweepJournal(
            error.journal_path, Analyzer()._sweep_job().fingerprint()
        )
        assert len(journal.entries()) == error.completed

    def test_interrupt_is_a_keyboard_interrupt(self, project):
        error = _interrupt(project, 1, after=2)
        assert isinstance(error, KeyboardInterrupt)


class TestResume:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_resumed_output_is_byte_identical(self, project, jobs):
        baseline = Analyzer().analyze_project(project)
        _interrupt(project, jobs, after=3)
        resumed = Analyzer().analyze_project(
            project, jobs=jobs, options=SweepOptions(resume=True)
        )
        assert _as_bytes(resumed) == _as_bytes(baseline)

    def test_resume_replays_journal_instead_of_recomputing(self, project):
        error = _interrupt(project, 1, after=4)
        analyzer = Analyzer()
        analyzer.analyze_project(
            project, jobs=1, options=SweepOptions(resume=True)
        )
        stats = analyzer.last_sweep_stats
        assert stats.resumed == error.completed
        assert stats.cache_misses == stats.files - error.completed

    def test_completed_resume_clears_the_journal(self, project):
        error = _interrupt(project, 1, after=3)
        Analyzer().analyze_project(
            project, jobs=1, options=SweepOptions(resume=True)
        )
        assert not error.journal_path.exists()

    def test_without_resume_flag_journal_is_ignored(self, project):
        _interrupt(project, 1, after=3)
        analyzer = Analyzer()
        results = analyzer.analyze_project(project, jobs=1)
        assert analyzer.last_sweep_stats.resumed == 0
        assert _as_bytes(results) == _as_bytes(
            Analyzer().analyze_project(project)
        )

    def test_stale_fingerprint_discards_journal(self, project):
        """A journal written under one rule set must not be spliced into
        a sweep running a different one."""
        _interrupt(project, 1, after=3)
        analyzer = Analyzer(extended=True)  # different rule set
        with pytest.warns(RuntimeWarning, match="different"):
            results = analyzer.analyze_project(
                project, jobs=1, options=SweepOptions(resume=True)
            )
        assert analyzer.last_sweep_stats.resumed == 0
        assert len(results) == 6

    def test_quarantine_survives_interrupt_and_resume(self, project):
        """A file quarantined before the interrupt stays quarantined in
        the resumed sweep's report without being re-run."""
        (project / "crash_me.py").write_text("y = 0\n", encoding="utf-8")
        analyzer = Analyzer()
        options = SweepOptions(
            faults=SweepFaultPlan(
                crash=("crash_me.py",), interrupt_after_files=4
            ),
            max_retries=0,
        )
        with pytest.raises(SweepInterrupted):
            analyzer.analyze_project(project, jobs=1, options=options)
        resumed = Analyzer()
        results = resumed.analyze_project(
            project, jobs=1, options=SweepOptions(resume=True)
        )
        roster = resumed.last_quarantine.paths()
        assert roster == [str(project / "crash_me.py")]
        assert results[str(project / "crash_me.py")] == []

    def test_resume_with_cache_matches_plain_resume(self, project):
        baseline = Analyzer().analyze_project(project)
        _interrupt(project, 1, after=3, max_retries=0)
        resumed = Analyzer().analyze_project(
            project, jobs=1, cache=True, options=SweepOptions(resume=True)
        )
        assert _as_bytes(resumed) == _as_bytes(baseline)
        # The replayed payloads were promoted into the cache: a second
        # cached sweep is all hits.
        analyzer = Analyzer()
        analyzer.analyze_project(project, jobs=1, cache=True)
        assert analyzer.last_sweep_stats.cache_hits == 6
