"""``# pepo: ignore[...]`` suppression: spans, parsing, provenance."""

import ast
import textwrap

from repro.analyzer.engine import Analyzer
from repro.analyzer.findings import Finding, Severity
from repro.analyzer.report import FindingsSummary
from repro.analyzer.suppress import (
    apply_suppressions,
    expand_suppressions,
    parse_suppressions,
)


def make_finding(line: int, rule_id: str = "R05_MODULUS") -> Finding:
    return Finding(
        file="x.py",
        line=line,
        col=0,
        rule_id=rule_id,
        component="c",
        message="m",
        suggestion="s",
        severity=Severity.MEDIUM,
    )


class TestParsing:
    def test_blanket_and_named_mix(self):
        source = (
            "a = 1  # pepo: ignore\n"
            "b = 2  # pepo: ignore[R05_MODULUS, R08_STR_CONCAT]\n"
            "c = 3\n"
        )
        parsed = parse_suppressions(source)
        assert parsed[1] is None
        assert parsed[2] == frozenset({"R05_MODULUS", "R08_STR_CONCAT"})
        assert 3 not in parsed

    def test_lowercase_rule_ids_normalized(self):
        parsed = parse_suppressions("x = 1  # pepo: ignore[r05_modulus]\n")
        assert parsed[1] == frozenset({"R05_MODULUS"})

    def test_unknown_rule_id_suppresses_nothing_else(self):
        findings = [make_finding(1, "R05_MODULUS")]
        kept, suppressed = apply_suppressions(
            findings, "x = 1  # pepo: ignore[R99_NOT_A_RULE]\n"
        )
        assert kept == findings
        assert suppressed == []

    def test_empty_brackets_act_as_blanket(self):
        parsed = parse_suppressions("x = 1  # pepo: ignore[ , ]\n")
        assert parsed[1] is None


class TestMultiLineStatements:
    SOURCE = textwrap.dedent(
        """\
        def f(xs):
            total = sum(
                x % 7
                for x in xs
            )  # pepo: ignore[R05_MODULUS]
            return total
        """
    )

    def test_comment_on_last_line_covers_statement_start(self):
        tree = ast.parse(self.SOURCE)
        # The finding anchors at the statement's first line (2), while
        # the comment sits on the closing-paren line (5).
        findings = [make_finding(2)]
        kept, suppressed = apply_suppressions(findings, self.SOURCE, tree=tree)
        assert kept == []
        assert suppressed == findings

    def test_without_tree_falls_back_to_exact_lines(self):
        findings = [make_finding(2)]
        kept, suppressed = apply_suppressions(findings, self.SOURCE)
        assert kept == findings

    def test_named_mismatch_keeps_finding(self):
        tree = ast.parse(self.SOURCE)
        findings = [make_finding(2, "R08_STR_CONCAT")]
        kept, suppressed = apply_suppressions(findings, self.SOURCE, tree=tree)
        assert kept == findings

    def test_inner_comment_not_widened_to_outer_function(self):
        source = textwrap.dedent(
            """\
            def f(xs):
                a = (1 %
                     4)  # pepo: ignore[R05_MODULUS]
                b = 5 % 7
                return a + b
            """
        )
        tree = ast.parse(source)
        expanded = expand_suppressions(parse_suppressions(source), tree)
        assert 2 in expanded  # the wrapped statement's first line
        assert 4 not in expanded  # sibling statement untouched

    def test_end_to_end_multiline_suppression(self):
        source = textwrap.dedent(
            """\
            def f(xs):
                out = []
                for x in xs:
                    out.append(x
                               % 8)  # pepo: ignore[R05_MODULUS]
                return out
            """
        )
        findings = Analyzer().analyze_source(source)
        assert not [f for f in findings if f.rule_id == "R05_MODULUS"]

    def test_audit_mode_keeps_everything(self):
        source = textwrap.dedent(
            """\
            def f(xs):
                t = 0
                for x in xs:
                    t += x % 7  # pepo: ignore[R05_MODULUS]
                return t
            """
        )
        kept, suppressed = Analyzer().analyze_source_full(source)
        assert [f for f in kept + suppressed if f.rule_id == "R05_MODULUS"]


class TestProvenance:
    SOURCE = textwrap.dedent(
        """\
        def f(xs):
            t = 0
            for x in xs:
                t += x % 7  # pepo: ignore[R05_MODULUS]
                t += x % 9
            return t
        """
    )

    def test_analyze_source_full_reports_suppressed(self):
        kept, suppressed = Analyzer().analyze_source_full(self.SOURCE)
        assert [f.rule_id for f in suppressed] == ["R05_MODULUS"]
        assert any(f.rule_id == "R05_MODULUS" and f.line == 5 for f in kept)

    def test_summary_renders_suppression_counts(self):
        kept, suppressed = Analyzer().analyze_source_full(self.SOURCE)
        summary = FindingsSummary(
            {"x.py": kept}, suppressed_by_file={"x.py": suppressed}
        )
        assert summary.suppressed_total == 1
        assert summary.suppressed_counts() == {"R05_MODULUS": 1}
        assert "1 finding(s) suppressed" in summary.render()
        assert "R05_MODULUS: 1" in summary.render()

    def test_summary_without_suppressions_unchanged(self):
        kept, _ = Analyzer().analyze_source_full(self.SOURCE)
        summary = FindingsSummary({"x.py": kept})
        assert summary.suppressed_total == 0
        assert "suppressed" not in summary.render()
