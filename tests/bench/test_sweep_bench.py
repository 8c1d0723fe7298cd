"""Tests for ``pepo bench sweep``: the reference engine is the commit
pinned in :data:`repro.bench.sweep.REFERENCE_COMMIT`, run from a
``git archive`` in a fresh interpreter, and the bench still fails when
the live engine drops findings."""

from pathlib import Path

import pytest

from repro.analyzer.rules.r08_str_concat import StrConcatRule
from repro.bench import sweep
from repro.bench.__main__ import main as bench_main
from repro.bench.sweep import (
    render_sweep_bench,
    run_reference,
    run_sweep_bench,
)

MODULE = """\
LIMIT = 10

def churn(rows):
    out = ''
    for row in rows:
        out += str(row % 7)
        if row > LIMIT:
            total = 0.0
            for k in range(len(rows)):
                total += rows[k]
    return out
"""


pytestmark = pytest.mark.reference_commit(sweep.REFERENCE_COMMIT)


@pytest.fixture
def project(tmp_path):
    root = tmp_path / "project"
    root.mkdir()
    for i in range(3):
        (root / f"mod_{i}.py").write_text(MODULE, encoding="utf-8")
    (root / "clean.py").write_text("VALUE = 1\n", encoding="utf-8")
    return root


def test_live_engine_agrees_with_reference_commit(project):
    result = run_sweep_bench(project, jobs=1, repeats=1)
    assert result.deterministic
    # R07 is at version 2 since it stopped flagging type guards; every
    # other rule keeps the reference commit's version.
    assert result.unshared_rules == ("R07_SHORT_CIRCUIT",)
    assert result.files == 4
    assert result.findings > 0

    reference = run_reference(project, repeats=1)
    assert Path(reference.repro_file).is_relative_to(reference.tree)
    assert sum(map(len, reference.findings.values())) == result.findings


def test_dropped_findings_fail_the_bench(project, tmp_path, monkeypatch):
    monkeypatch.setattr(StrConcatRule, "check", lambda self, node, ctx: [])
    result = run_sweep_bench(project, jobs=1, repeats=1)
    assert not result.deterministic
    assert not result.meets_target()
    assert bench_main([
        "sweep", "--project", str(project), "--jobs", "1",
        "--output", str(tmp_path / "BENCH_sweep.json"), "--check",
    ]) == 1


def test_version_bumped_rule_is_left_out_and_named(project, monkeypatch):
    monkeypatch.setattr(StrConcatRule, "version", StrConcatRule.version + 1)
    monkeypatch.setattr(StrConcatRule, "check", lambda self, node, ctx: [])
    result = run_sweep_bench(project, jobs=1, repeats=1)
    assert result.deterministic
    assert result.unshared_rules == ("R07_SHORT_CIRCUIT", "R08_STR_CONCAT")
    assert "R08_STR_CONCAT" in render_sweep_bench(result).splitlines()[-1]


def test_unreadable_reference_commit_fails_in_one_line(project, monkeypatch):
    unknown = "0" * 40
    monkeypatch.setattr(sweep, "REFERENCE_COMMIT", unknown)
    with pytest.raises(SystemExit) as failure:
        run_sweep_bench(project, jobs=1, repeats=1)
    message = str(failure.value)
    assert unknown in message
    assert "git history" in message
    assert "\n" not in message
