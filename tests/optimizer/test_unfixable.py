"""The optimizer's "detected but not auto-fixable" report.

The report is the last pass's findings of rules that ship no transform,
made on the optimized tree against the original text.  It must match
an independent analysis of the optimized source (up to the line moves
of the unparsed rewrite), cite lines of the file as written, agree
between in-process runs and project sweeps, and follow runtime
registration.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

from repro.analyzer.engine import Analyzer
from repro.analyzer.rules.base import Rule
from repro.optimizer import Optimizer, optimize_source
from repro.rules import REGISTRY
from repro.rules.spec import RuleSpec

ROOT = Path(__file__).resolve().parents[2]
CORPUS = (
    sorted((ROOT / "tests" / "analyzer" / "fixtures" / "flow").glob("*.py"))
    + sorted((ROOT / "examples").glob("*.py"))
    + [
        ROOT / "src" / "repro" / "unopt" / f"{name}.py"
        for name in ("classifiers", "slow_ops")
    ]
)

#: Findings from every rule without a transform, plus a modulus the
#: R05 transform cannot rewrite (its left operand is not a range index).
UNFIXABLE_MIX = (
    "from decimal import Decimal\n"
    "import numpy as np\n"
    "for x in range(3):\n"
    "    d = Decimal(x)\n"
    "    v = np.int32(x)\n"
    "def f(xs):\n"
    "    total = 0.0\n"
    "    for x in xs:\n"
    "        total += 1\n"
    "        if expensive(x) and x > 0:\n"
    "            total += x % 8\n"
    "        try:\n"
    "            int(x)\n"
    "        except ValueError:\n"
    "            pass\n"
    "    return total\n"
)


def _sources() -> dict[str, str]:
    sources = {
        path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
        for path in CORPUS
    }
    sources["unfixable_mix.py"] = UNFIXABLE_MIX
    return sources


def _post_hoc(optimized: str, filename: str):
    """Every detector, then drop the rules that have a transform."""
    return [
        f
        for f in Analyzer().analyze_source(optimized, filename=filename)
        if not REGISTRY.has_transform(f.rule_id)
    ]


def _unlocated(finding) -> tuple:
    """A finding minus where it sits (line, column, snippet)."""
    record = finding.to_dict()
    for field in ("line", "col", "snippet"):
        del record[field]
    return tuple(sorted(record.items()))


@pytest.mark.parametrize("name", sorted(_sources()))
def test_unfixable_equals_post_hoc_filter(name):
    source = _sources()[name]
    result = optimize_source(source, filename=name)
    post_hoc = _post_hoc(result.optimized, name)
    if result.changed:
        # The unparsed rewrite moves lines; the report keeps the file's.
        assert Counter(map(_unlocated, result.unfixable)) == Counter(
            map(_unlocated, post_hoc)
        )
    else:
        assert [f.to_dict() for f in result.unfixable] == [
            f.to_dict() for f in post_hoc
        ]
    lines = source.splitlines()
    assert all(f.snippet == lines[f.line - 1].strip() for f in result.unfixable)


def test_mix_reports_every_rule_without_a_transform():
    result = optimize_source(UNFIXABLE_MIX)
    rules = {f.rule_id for f in result.unfixable}
    assert rules == {
        "R01_NUMERIC_TYPE", "R03_BOXING", "R07_SHORT_CIRCUIT", "R12_EXCEPTION_FLOW",
    }
    # The surviving modulus is still reported by the analyzer, but its
    # rule has a transform, so it is not "unfixable".
    assert any(
        f.rule_id == "R05_MODULUS"
        for f in Analyzer().analyze_source(result.optimized)
    )
    assert "R05_MODULUS" not in rules


@pytest.fixture
def project(tmp_path):
    for name, source in _sources().items():
        target = tmp_path / name.replace("/", "__")
        target.write_text(source, encoding="utf-8")
    return tmp_path


def test_serial_and_parallel_sweeps_agree_per_file(project):
    serial = Optimizer().optimize_project(project, jobs=1)
    parallel = Optimizer().optimize_project(project, jobs=2)
    assert sorted(serial) == sorted(parallel)
    for filename, result in serial.items():
        assert [f.to_dict() for f in result.unfixable] == [
            f.to_dict() for f in parallel[filename].unfixable
        ], filename
        source = Path(filename).read_text(encoding="utf-8")
        in_process = optimize_source(source, filename=filename)
        assert result.unfixable == in_process.unfixable, filename


class SleepCallRule(Rule):
    """Flags ``time.sleep`` calls; ships no transform."""

    rule_id = "X60_SLEEP_CALL"
    interested_types = (ast.Call,)

    def check(self, node, ctx):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "sleep":
            yield ctx.finding(self.rule_id, node, "sleep() in a hot path")


SLEEP_SPEC = RuleSpec(
    rule_id="X60_SLEEP_CALL",
    python_component="Sleeping calls",
    python_suggestion="Block on an event instead of sleeping.",
    detector=SleepCallRule,
    overhead_percent=50.0,
)


def test_runtime_detector_only_rule_is_reported(tmp_path):
    source = "import time\ndef f():\n    time.sleep(1)\n"
    (tmp_path / "sleepy.py").write_text(source, encoding="utf-8")
    REGISTRY.register(SLEEP_SPEC)
    try:
        result = optimize_source(source, filename="sleepy.py")
        assert [f.rule_id for f in result.unfixable] == ["X60_SLEEP_CALL"]
        swept = Optimizer().optimize_project(tmp_path)
        (only,) = swept.values()
        assert [f.rule_id for f in only.unfixable] == ["X60_SLEEP_CALL"]
    finally:
        REGISTRY.unregister("X60_SLEEP_CALL")
    assert optimize_source(source).unfixable == ()
