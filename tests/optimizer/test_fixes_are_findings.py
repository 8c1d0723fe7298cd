"""The optimizer applies the analyzer's findings, and nothing else.

* Every ``AppliedChange`` is a kept finding of the same rule, made in
  the pass that applied it at the very node the finding anchors.
* A site whose finding is suppressed is never rewritten.
* The unfixable report honours suppressions and cites lines of the
  file as written, not of the unparsed rewrite.
"""

from __future__ import annotations

from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings

from repro.analyzer import Analyzer
from repro.optimizer import Optimizer, optimize_source
from repro.rules import REGISTRY
from tests.strategies import mixed_program

ROOT = Path(__file__).resolve().parents[2]
GOLDEN_CORPUS = (
    sorted((ROOT / "tests" / "analyzer" / "fixtures" / "flow").glob("*.py"))
    + sorted((ROOT / "examples").glob("*.py"))
    + [
        ROOT / "src" / "repro" / "unopt" / f"{name}.py"
        for name in ("classifiers", "narrow", "slow_ops")
    ]
)
SUPPRESSED = sorted((Path(__file__).parent / "data" / "suppressed").glob("*.py"))


def traced_passes(source: str, filename: str = "<t>"):
    """Optimize ``source``; return the result and, per pass, the kept
    ``(finding, anchor)`` pairs and the ``(node, change)`` pairs that
    the transforms applied."""
    passes: list[dict] = []
    real_analyze = Analyzer.analyze_tree

    def analyze(self, *args, **kwargs):
        kept, semantics = real_analyze(self, *args, **kwargs)
        passes.append({"kept": kept, "applied": []})
        return kept, semantics

    def spy(real):
        def fix(self, node, ctx):
            change = real(self, node, ctx)
            if change is not None:
                passes[-1]["applied"].append((node, change))
            return change

        return fix

    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(Analyzer, "analyze_tree", analyze))
        for cls in REGISTRY.transform_classes():
            stack.enter_context(mock.patch.object(cls, "fix", spy(cls.fix)))
        result = Optimizer().optimize_source(source, filename=filename)
    return result, passes


def assert_every_change_has_a_finding(source: str, filename: str = "<t>") -> None:
    result, passes = traced_passes(source, filename)
    applied = []
    for record in passes:
        for node, change in record["applied"]:
            assert any(
                finding.rule_id == change.rule_id and anchor is node
                for finding, anchor in record["kept"]
            ), change
            applied.append(change)
    assert tuple(applied) == result.changes


@pytest.mark.parametrize("path", GOLDEN_CORPUS, ids=lambda p: p.name)
def test_every_change_has_a_finding_on_the_golden_corpus(path):
    assert_every_change_has_a_finding(path.read_text(encoding="utf-8"), str(path))


@settings(max_examples=60, deadline=None)
@given(program=mixed_program())
def test_every_change_has_a_finding_on_generated_programs(program):
    assert_every_change_has_a_finding(program)


def _unsuppressed(source: str) -> str:
    return "".join(
        line.split("  # pepo: ignore")[0] + "\n" for line in source.splitlines()
    )


@pytest.mark.parametrize("path", SUPPRESSED, ids=lambda p: p.stem)
def test_suppressed_site_is_never_rewritten(path):
    source = path.read_text(encoding="utf-8")
    rule = source.split("# pepo: ignore[")[1].split("]")[0]
    # Without its comment the site is live: the rule fires and is fixed.
    bare = _unsuppressed(source)
    assert rule in {f.rule_id for f in Analyzer(extended=True).analyze_source(bare)}
    assert rule in optimize_source(bare).count_by_rule()
    # With it, suggest is silent and optimize leaves the file as it is.
    assert Analyzer(extended=True).analyze_source(source) == []
    result = optimize_source(source, filename=str(path))
    assert result.changes == ()
    assert result.optimized == source


def test_every_fixable_rule_has_a_suppressed_fixture():
    assert {p.stem.split("_")[0].upper() for p in SUPPRESSED} == {
        t.rule_id.split("_")[0] for t in REGISTRY.transform_classes()
    }


#: An R02 rewrite forces an unparse, which moves the ``except`` a line up.
EXCEPTION_FLOW = (
    "X = 1000000.0\n"
    "\n"
    "\n"
    "def f(xs):\n"
    "    for x in xs:\n"
    "        try:  # pepo: ignore\n"
    "            int(x)\n"
    "        except ValueError:\n"
    "            pass\n"
)


def test_unfixable_report_honours_suppressions():
    suggested = Analyzer().analyze_source(EXCEPTION_FLOW)
    assert [f.rule_id for f in suggested] == ["R02_SCI_NOTATION"]
    result = optimize_source(EXCEPTION_FLOW)
    assert result.count_by_rule() == {"R02_SCI_NOTATION": 1}
    assert result.unfixable == ()


def test_unfixable_report_cites_lines_of_the_file():
    source = EXCEPTION_FLOW.replace("  # pepo: ignore", "")
    result = optimize_source(source)
    assert result.changed
    (finding,) = result.unfixable
    assert finding.rule_id == "R12_EXCEPTION_FLOW"
    assert finding.line == 8
    assert source.splitlines()[finding.line - 1].strip() == finding.snippet
    assert result.optimized.splitlines()[finding.line - 1].strip() != finding.snippet
    assert [f.line for f in Analyzer().analyze_source(source)] == [1, 8]


def _rules_per_pass(source: str) -> list[list[str]]:
    _result, passes = traced_passes(source)
    return [sorted({c.rule_id for _n, c in p["applied"]}) for p in passes]


def test_model_reader_waits_for_a_pass_when_its_function_changed():
    # R08 rewrites ``f`` first; R04 reads the pass's model, which no
    # longer describes ``f``, so its hoist waits for the next pass.
    source = (
        "RATE = 2\n"
        "def f(names, xs):\n"
        "    out = ''\n"
        "    for n in names:\n"
        "        out += n\n"
        "    total = 0\n"
        "    for x in xs:\n"
        "        total += x * RATE\n"
        "    return out, total\n"
    )
    first, *later = _rules_per_pass(source)
    assert first == ["R08_STR_CONCAT"]
    assert any("R04_GLOBAL_IN_LOOP" in rules for rules in later)
    # In another function the model still holds: both apply at once.
    split = source.replace(
        "    total = 0\n", "    return out\ndef g(xs):\n    total = 0\n"
    )
    split = split.replace("return out, total", "return total")
    assert _rules_per_pass(split)[0] == ["R04_GLOBAL_IN_LOOP", "R08_STR_CONCAT"]
