"""Chunked-dispatch edge cases.

Parallel sweeps ship *chunks* of files per pool task to amortize
submit/pickle overhead, sized from the file and worker counts.  These
tests pin the boundaries of that design: degenerate chunk geometry
(fewer files per chunk than workers), failure isolation (a poison file
must cost the sweep one file, never its chunk-mates), and the interrupt
journal staying file-granular so ``--resume`` replays byte-identically
even when the interrupt lands mid-chunk.  Each test first checks that
its corpus and worker count give the chunk size it is about.
"""

import json

import pytest

from repro.analyzer import Analyzer
from repro.resilience import SweepFaultPlan
from repro.sweep import SweepInterrupted, SweepOptions, SweepSupervisor

DIRTY = (
    "def f(names):\n"
    "    out = ''\n"
    "    for n in names:\n"
    "        out += n\n"
    "    return out\n"
)

FAST = dict(timeout_seconds=2.0, max_retries=1)


def _write_project(root, files):
    for index in range(files):
        (root / f"mod_{index:02d}.py").write_text(
            DIRTY + f"X = {index}\n", encoding="utf-8"
        )
    return root


@pytest.fixture()
def project(tmp_path):
    # 24 files at jobs=2: chunks of 3, so every file has chunk-mates.
    return _write_project(tmp_path, 24)


def _chunk_size(files, jobs):
    """The chunk size a parallel sweep of ``files`` files will use."""
    return SweepSupervisor(None, workers=jobs)._pick_chunk_size(files)


def _as_bytes(findings_by_file) -> bytes:
    return json.dumps(
        {k: [f.to_dict() for f in v] for k, v in findings_by_file.items()}
    ).encode()


def _sweep(project, jobs, **options):
    analyzer = Analyzer()
    results = analyzer.analyze_project(
        project, jobs=jobs, options=SweepOptions(**options)
    )
    return results, analyzer.last_quarantine


class TestChunkGeometry:
    @pytest.mark.parametrize("chunk_size", [1, 2])
    def test_chunk_smaller_than_jobs(self, tmp_path, chunk_size):
        # 4 workers, chunks of 1 (6 files) or 2 (22 files): more
        # dispatches than any worker "needs" — output must still match
        # serial exactly.
        files = 16 * chunk_size - 10
        assert _chunk_size(files, jobs=4) == chunk_size
        project = _write_project(tmp_path, files)
        serial = Analyzer().analyze_project(project)
        chunked, quarantine = _sweep(project, jobs=4)
        assert not quarantine
        assert _as_bytes(chunked) == _as_bytes(serial)


class TestPoisonInsideChunk:
    def test_inline_poison_isolates_file_not_chunk(self, project):
        # A MemoryError inside analysis is caught in the worker and
        # reported as an inline per-file marker: chunk-mates' finished
        # work must survive, and only the poison file is quarantined.
        assert _chunk_size(24, jobs=2) == 3
        serial = Analyzer().analyze_project(project)
        poisoned, quarantine = _sweep(
            project,
            jobs=2,
            faults=SweepFaultPlan(memory=("mod_02.py",)),
            **FAST,
        )
        assert [e.path for e in quarantine.entries] == [
            str(project / "mod_02.py")
        ]
        assert poisoned[str(project / "mod_02.py")] == []
        healthy = {
            k: v for k, v in serial.items() if not k.endswith("mod_02.py")
        }
        assert _as_bytes(
            {k: v for k, v in poisoned.items() if k in healthy}
        ) == _as_bytes(healthy)

    def test_worker_crash_isolates_file_not_chunk(self, project):
        # A crash kills the whole chunk ambiguously; the supervisor
        # must retry the chunk's files one at a time until the real
        # culprit is unmasked — chunk-mates end up with full findings.
        assert _chunk_size(24, jobs=2) == 3
        serial = Analyzer().analyze_project(project)
        poisoned, quarantine = _sweep(
            project,
            jobs=2,
            faults=SweepFaultPlan(crash=("mod_01.py",)),
            **FAST,
        )
        assert [e.path for e in quarantine.entries] == [
            str(project / "mod_01.py")
        ]
        assert quarantine.entries[0].reason == "crash"
        assert poisoned[str(project / "mod_01.py")] == []
        healthy = {
            k: v for k, v in serial.items() if not k.endswith("mod_01.py")
        }
        assert _as_bytes(
            {k: v for k, v in poisoned.items() if k in healthy}
        ) == _as_bytes(healthy)


class TestResumeAcrossChunkBoundary:
    def test_resume_mid_chunk_is_byte_identical(self, project):
        # Interrupt after 4 files with chunks of 3: the journal cuts
        # across a chunk boundary (one chunk done, one part-credited).
        # The resumed sweep must complete to serial-identical output.
        assert _chunk_size(24, jobs=2) == 3
        baseline = Analyzer().analyze_project(project)
        analyzer = Analyzer()
        with pytest.raises(SweepInterrupted) as info:
            analyzer.analyze_project(
                project,
                jobs=2,
                options=SweepOptions(
                    faults=SweepFaultPlan(interrupt_after_files=4),
                ),
            )
        assert info.value.completed >= 4
        assert info.value.completed < 24

        resumed = Analyzer().analyze_project(
            project,
            jobs=2,
            options=SweepOptions(resume=True),
        )
        assert _as_bytes(resumed) == _as_bytes(baseline)
