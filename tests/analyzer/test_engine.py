"""Tests for the analyzer engine, suggestion pool, and the dynamic (Fig. 2) mode."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyzer import Analyzer, DynamicAnalyzer, analyze_source
from repro.rules import REGISTRY
from repro.analyzer.findings import Severity

CLEAN_SOURCE = (
    "def mean(xs):\n"
    "    total = 0\n"
    "    for x in xs:\n"
    "        total += x\n"
    "    return total / len(xs) if xs else 0.0\n"
)

DIRTY_SOURCE = (
    "def f(names):\n"
    "    out = ''\n"
    "    for n in names:\n"
    "        out += n\n"
    "    return out\n"
)


class TestAnalyzer:
    def test_findings_sorted_by_location(self):
        src = (
            "def a(xs):\n"
            "    s = ''\n"
            "    for x in xs:\n"
            "        s += x\n"
            "        r = x % 7\n"
        )
        findings = analyze_source(src)
        lines = [f.line for f in findings]
        assert lines == sorted(lines)

    def test_rule_subset_selection(self):
        analyzer = Analyzer(rules=[REGISTRY.detector_classes()[7]])  # R08 only
        assert analyzer.rule_ids == ("R08_STR_CONCAT",)
        findings = analyzer.analyze_source(DIRTY_SOURCE)
        assert {f.rule_id for f in findings} == {"R08_STR_CONCAT"}

    def test_every_rule_instantiable_and_registered(self):
        analyzer = Analyzer()
        assert len(analyzer.rule_ids) == 13
        assert len(set(analyzer.rule_ids)) == 13

    def test_snippet_and_component_populated(self):
        finding = analyze_source(DIRTY_SOURCE)[0]
        assert finding.snippet == "out += n"
        assert finding.component
        assert finding.suggestion

    def test_analyze_file(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(DIRTY_SOURCE)
        analyzer = Analyzer()
        findings = analyzer.analyze_file(path)
        assert findings
        assert findings[0].file == str(path)

    def test_analyze_project_covers_all_files(self, tmp_path):
        (tmp_path / "dirty.py").write_text(DIRTY_SOURCE)
        (tmp_path / "clean.py").write_text(CLEAN_SOURCE)
        (tmp_path / "broken.py").write_text("def (:\n")
        results = Analyzer().analyze_project(tmp_path)
        assert len(results) == 3
        assert results[str(tmp_path / "dirty.py")]
        assert results[str(tmp_path / "clean.py")] == []
        assert results[str(tmp_path / "broken.py")] == []

    def test_loop_enclosing_function_def_does_not_leak(self):
        # A def inside a loop: the body is NOT per-iteration at runtime.
        src = (
            "def outer(xs):\n"
            "    fns = []\n"
            "    for x in xs:\n"
            "        def inner(a, b):\n"
            "            return a % b\n"
            "        fns.append(inner)\n"
        )
        assert "R05_MODULUS" not in [f.rule_id for f in analyze_source(src)]

    def test_syntax_error_propagates(self):
        with pytest.raises(SyntaxError):
            analyze_source("def broken(:\n")

    @settings(max_examples=25, deadline=None)
    @given(st.text(alphabet="abcdefg()[]:=+%\n 0123456789'\"", max_size=200))
    def test_never_crashes_on_parseable_soup(self, text):
        """Property: any string either raises SyntaxError or analyzes."""
        try:
            compile(text, "<t>", "exec")
        except (SyntaxError, ValueError):
            return
        analyze_source(text)


class TestDispatchIndex:
    """The node-type index only calls rules on nodes they declared."""

    def _counting_rule(self, interested):
        import ast as ast_mod

        from repro.analyzer.rules.base import Rule

        seen = []

        class CountingRule(Rule):
            rule_id = "X00_COUNTING"
            interested_types = interested

            def check(self, node, ctx):
                seen.append(type(node).__name__)
                return iter(())

        return CountingRule, seen

    def test_declared_rule_sees_only_its_node_types(self):
        import ast as ast_mod

        cls, seen = self._counting_rule((ast_mod.BinOp,))
        Analyzer(rules=[cls]).analyze_source(
            "def f(x):\n    y = x % 2\n    return y\n"
        )
        assert seen and set(seen) == {"BinOp"}

    def test_undeclared_rule_falls_back_to_all_nodes(self):
        cls, seen = self._counting_rule(None)
        Analyzer(rules=[cls]).analyze_source(
            "def f(x):\n    y = x % 2\n    return y\n"
        )
        # Saw far more than just the BinOp: the all-nodes fallback.
        assert "BinOp" in seen
        assert "FunctionDef" in seen
        assert "Return" in seen

    def test_every_builtin_rule_declares_interests(self):
        # Keeps the fast path honest: a shipped rule that forgets to
        # declare interested_types silently reverts to all-nodes cost.
        from repro.rules import REGISTRY

        for spec in REGISTRY:
            if spec.builtin:
                assert spec.detector.interested_types, spec.rule_id

    def test_explicit_rules_analyzer_reused_across_sources(self):
        # The dispatch index (and pre-filter masks) are memoized per
        # instance and never invalidated — by design: the rule set is
        # frozen at construction, so a reused Analyzer must keep giving
        # answers identical to a fresh one, source after source.
        sources = (
            DIRTY_SOURCE,
            CLEAN_SOURCE,
            "def f(xs):\n    s = ''\n    for x in xs:\n        s += x\n"
            "    return s\n",
            DIRTY_SOURCE,  # revisit an earlier source: same answer
        )
        rules = REGISTRY.detector_classes()
        reused = Analyzer(rules=[rules[7], rules[3]])
        for src in sources:
            fresh = Analyzer(rules=[rules[7], rules[3]])
            assert [f.to_dict() for f in reused.analyze_source(src)] == [
                f.to_dict() for f in fresh.analyze_source(src)
            ]

    def test_runtime_registration_needs_fresh_analyzer(self):
        # Documented contract: rules registered after construction are
        # invisible to existing instances; a fresh Analyzer sees them.
        import ast as ast_mod

        from repro.analyzer.rules.base import Rule
        from repro.rules import REGISTRY, RuleSpec
        from repro.rules.registry import RuleRegistry

        class LateRule(Rule):
            rule_id = "X98_LATE"
            interested_types = (ast_mod.Module,)

            def check(self, node, ctx):
                yield ctx.finding(
                    self.rule_id, node, "late-registered rule ran"
                )

        registry = RuleRegistry(REGISTRY.specs())
        before = Analyzer(registry=registry)
        registry.register(
            RuleSpec(
                rule_id="X98_LATE",
                python_component="Late registration",
                python_suggestion="n/a",
                detector=LateRule,
            )
        )
        after = Analyzer(registry=registry)
        assert "X98_LATE" not in before.rule_ids
        assert "X98_LATE" in after.rule_ids

    def test_indexed_findings_match_unindexed(self):
        # The index is an optimization, not a behavior change: force
        # the all-nodes path and compare findings field by field.
        src = (
            "G = re\n"
            "def f(xs):\n"
            "    s = ''\n"
            "    for i in range(len(xs)):\n"
            "        s += str(xs[i] % 10)\n"
            "        t = 1 if s else 2\n"
            "    return s\n"
        )
        indexed = Analyzer(extended=True).analyze_source(src)
        plain = Analyzer(extended=True)
        for rule in plain._rules:
            rule.interested_types = None
        plain._dispatch.clear()
        unindexed = plain.analyze_source(src)
        assert [f.to_dict() for f in indexed] == [
            f.to_dict() for f in unindexed
        ]


class TestSuggestionPool:
    """Table I's suggestion pool, served by the rule registry."""

    def test_thirteen_entries(self):
        assert len(REGISTRY.table1_specs()) == 13

    def test_java_text_matches_table_i(self):
        assert REGISTRY.get("R05_MODULUS").java_suggestion.startswith(
            "Modulus arithmetic operator consumes up to 1,620%"
        )
        assert "StringBuilder append" in REGISTRY.get("R08_STR_CONCAT").java_suggestion
        assert "System.arraycopy()" in REGISTRY.get("R10_ARRAY_COPY").java_suggestion

    def test_every_entry_has_python_translation(self):
        for spec in REGISTRY.table1_specs():
            assert spec.python_component
            assert spec.python_suggestion
            assert spec.overhead_percent > 0

    def test_membership_and_lookup(self):
        assert "R11_TRAVERSAL" in REGISTRY
        assert "R99_FAKE" not in REGISTRY
        with pytest.raises(KeyError):
            REGISTRY.get("R99_FAKE")


class TestDynamicAnalyzer:
    def test_adding_antipattern_reports_added(self):
        dyn = DynamicAnalyzer()
        first = dyn.update(CLEAN_SOURCE)
        assert first.added == ()
        second = dyn.update(CLEAN_SOURCE + "\n" + DIRTY_SOURCE)
        assert any(f.rule_id == "R08_STR_CONCAT" for f in second.added)

    def test_fixing_antipattern_reports_removed(self):
        dyn = DynamicAnalyzer()
        dyn.update(DIRTY_SOURCE)
        delta = dyn.update(CLEAN_SOURCE)
        assert any(f.rule_id == "R08_STR_CONCAT" for f in delta.removed)
        assert dyn.findings == []

    def test_unchanged_pattern_that_moved_lines_not_readded(self):
        dyn = DynamicAnalyzer()
        dyn.update(DIRTY_SOURCE)
        shifted = "# a new comment line\n" + DIRTY_SOURCE
        delta = dyn.update(shifted)
        assert delta.added == ()
        assert delta.removed == ()
        assert len(delta.unchanged) >= 1

    def test_syntax_error_keeps_previous_findings(self):
        dyn = DynamicAnalyzer()
        dyn.update(DIRTY_SOURCE)
        before = dyn.findings
        delta = dyn.update("def half_typed(:\n")
        assert delta.added == ()
        assert delta.removed == ()
        assert dyn.findings == before

    def test_filename_attached_to_findings(self):
        dyn = DynamicAnalyzer(filename="editor.py")
        dyn.update(DIRTY_SOURCE)
        assert dyn.findings[0].file == "editor.py"

    def test_unchanged_buffer_short_circuits_reanalysis(self):
        # Editors call update per keystroke; an identical buffer must
        # not pay for a re-parse (source-hash short-circuit).
        analyzer = Analyzer()
        calls = []
        real = analyzer.analyze_source

        def counting(source, filename="<string>"):
            calls.append(filename)
            return real(source, filename=filename)

        analyzer.analyze_source = counting
        dyn = DynamicAnalyzer(analyzer=analyzer)
        first = dyn.update(DIRTY_SOURCE)
        analyzed = len(calls)
        second = dyn.update(DIRTY_SOURCE)
        assert len(calls) == analyzed  # no re-analysis
        assert second.added == () and second.removed == ()
        assert len(second.unchanged) == len(first.added) + len(first.unchanged)
        assert dyn.findings  # state intact

    def test_short_circuit_then_edit_still_reanalyzes(self):
        dyn = DynamicAnalyzer()
        dyn.update(DIRTY_SOURCE)
        dyn.update(DIRTY_SOURCE)  # short-circuited
        delta = dyn.update(CLEAN_SOURCE)
        assert any(f.rule_id == "R08_STR_CONCAT" for f in delta.removed)
        assert dyn.findings == []

    def test_last_good_source_tracks_parseable_buffers(self):
        # The accessor answers "which buffer do the displayed findings
        # describe": None before any parseable update, then the most
        # recent buffer that parsed — a broken mid-edit buffer leaves
        # it (and the findings) at the previous good state.
        dyn = DynamicAnalyzer()
        assert dyn.last_good_source is None
        dyn.update(DIRTY_SOURCE)
        assert dyn.last_good_source == DIRTY_SOURCE
        dyn.update("def half_typed(:\n")
        assert dyn.last_good_source == DIRTY_SOURCE
        dyn.update(CLEAN_SOURCE)
        assert dyn.last_good_source == CLEAN_SOURCE


class TestSourceReading:
    def test_analyze_file_reads_utf8(self, tmp_path):
        path = tmp_path / "uni.py"
        path.write_text(
            "def f(xs):\n    s = ''\n    for x in xs:\n        s += 'é'\n",
            encoding="utf-8",
        )
        findings = Analyzer().analyze_file(path)
        assert any(f.rule_id == "R08_STR_CONCAT" for f in findings)

    def test_analyze_file_non_utf8_raises(self, tmp_path):
        path = tmp_path / "latin.py"
        path.write_bytes(b"s = '\xe9\xff'\n")
        with pytest.raises(UnicodeDecodeError):
            Analyzer().analyze_file(path)

    def test_project_sweep_treats_decode_errors_like_syntax_errors(
        self, tmp_path
    ):
        (tmp_path / "good.py").write_text(DIRTY_SOURCE, encoding="utf-8")
        (tmp_path / "latin.py").write_bytes(b"s = '\xe9\xff'\n")
        results = Analyzer().analyze_project(tmp_path)
        assert results[str(tmp_path / "latin.py")] == []
        assert results[str(tmp_path / "good.py")]

    def test_project_sweep_treats_read_errors_like_syntax_errors(
        self, tmp_path
    ):
        (tmp_path / "good.py").write_text(DIRTY_SOURCE, encoding="utf-8")
        (tmp_path / "dir.py").mkdir()  # rglob matches; read raises OSError
        results = Analyzer().analyze_project(tmp_path)
        assert results[str(tmp_path / "dir.py")] == []
        assert results[str(tmp_path / "good.py")]


class TestSeverities:
    def test_quantified_rules_high_severity(self):
        src = (
            "G = 1\n"
            "def f(n):\n"
            "    s = ''\n"
            "    for i in range(n):\n"
            "        s += str(G)\n"
        )
        by_rule = {f.rule_id: f for f in analyze_source(src)}
        assert by_rule["R04_GLOBAL_IN_LOOP"].severity == Severity.HIGH
        assert by_rule["R08_STR_CONCAT"].severity == Severity.HIGH

    def test_heuristic_rules_advice_severity(self):
        src = "def f(x, flag):\n    return compute(x) and flag\n"
        finding = analyze_source(src)[0]
        assert finding.severity == Severity.ADVICE

    def test_one_line_format(self):
        finding = analyze_source(DIRTY_SOURCE)[0]
        text = finding.one_line()
        assert text.startswith("<string>:4:")
        assert "[R08_STR_CONCAT]" in text
