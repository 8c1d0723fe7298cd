"""Tests for suppressions and the extension rules (paper future work)."""

import pytest

from repro.analyzer import Analyzer
from repro.analyzer.suppress import apply_suppressions, parse_suppressions


def extended_ids(source: str) -> list[str]:
    return [f.rule_id for f in Analyzer(extended=True).analyze_source(source)]


def base_ids(source: str) -> list[str]:
    return [f.rule_id for f in Analyzer().analyze_source(source)]


class TestR14AppendLoop:
    TRANSFORMING = (
        "def f(xs):\n"
        "    out = []\n"
        "    for x in xs:\n"
        "        out.append(x * 2)\n"
        "    return out\n"
    )

    def test_transforming_append_flagged_when_extended(self):
        assert "R14_APPEND_LOOP" in extended_ids(self.TRANSFORMING)

    def test_not_flagged_by_default(self):
        assert "R14_APPEND_LOOP" not in base_ids(self.TRANSFORMING)

    def test_pure_copy_left_to_r10(self):
        src = (
            "def f(xs):\n"
            "    out = []\n"
            "    for x in xs:\n"
            "        out.append(x)\n"
        )
        ids = extended_ids(src)
        assert "R14_APPEND_LOOP" not in ids
        assert "R10_ARRAY_COPY" in ids

    def test_multi_statement_body_not_flagged(self):
        src = (
            "def f(xs):\n"
            "    out = []\n"
            "    for x in xs:\n"
            "        y = x * 2\n"
            "        out.append(y)\n"
        )
        assert "R14_APPEND_LOOP" not in extended_ids(src)

    def test_comprehension_not_flagged(self):
        src = "def f(xs):\n    return [x * 2 for x in xs]\n"
        assert "R14_APPEND_LOOP" not in extended_ids(src)


class TestR15RangeLen:
    READ_ONLY = (
        "def f(seq):\n"
        "    total = 0\n"
        "    for i in range(len(seq)):\n"
        "        total += seq[i]\n"
        "    return total\n"
    )

    def test_read_only_indexing_flagged(self):
        assert "R15_RANGE_LEN" in extended_ids(self.READ_ONLY)

    def test_not_flagged_by_default(self):
        assert "R15_RANGE_LEN" not in base_ids(self.READ_ONLY)

    def test_write_through_index_not_flagged(self):
        src = (
            "def f(seq):\n"
            "    for i in range(len(seq)):\n"
            "        seq[i] = seq[i] * 2\n"
        )
        assert "R15_RANGE_LEN" not in extended_ids(src)

    def test_index_used_elsewhere_not_flagged(self):
        src = (
            "def f(seq, other):\n"
            "    total = 0\n"
            "    for i in range(len(seq)):\n"
            "        total += seq[i] + other[i]\n"
        )
        assert "R15_RANGE_LEN" not in extended_ids(src)

    def test_direct_iteration_not_flagged(self):
        src = "def f(seq):\n    return sum(v for v in seq)\n"
        assert "R15_RANGE_LEN" not in extended_ids(src)


class TestPoolExtensions:
    def test_pool_lookup_covers_extensions(self):
        from repro.rules import REGISTRY

        assert len(REGISTRY.table1_specs()) == 13  # Table I unchanged
        assert len(REGISTRY.extension_specs()) == 5
        assert "comprehension" in REGISTRY.get("R14_APPEND_LOOP").python_suggestion
        assert REGISTRY.get("R15_RANGE_LEN").overhead_percent > 0

    def test_cost_table_marks_extensions(self):
        from repro.rapl.model import OperationCostTable

        table = OperationCostTable()
        assert table.is_extension("R14_APPEND_LOOP")
        assert not table.is_extension("R05_MODULUS")
        assert len(table.rule_ids()) == 13
        assert set(table.extension_ids()) == {
            "R14_APPEND_LOOP", "R15_RANGE_LEN", "R16_DEAD_STORE",
            "R17_INVARIANT_RECOMPUTE", "R18_PURE_MEMOIZE",
        }


DIRTY_LINE = (
    "def f(names):\n"
    "    out = ''\n"
    "    for n in names:\n"
    "        out += n  # pepo: ignore[R08_STR_CONCAT]\n"
    "    return out\n"
)


class TestSuppressions:
    def test_parse_blanket_and_named(self):
        source = (
            "a = 1  # pepo: ignore\n"
            "b = 2  # pepo: ignore[R05_MODULUS, R08_STR_CONCAT]\n"
            "c = 3\n"
        )
        suppressions = parse_suppressions(source)
        assert suppressions[1] is None
        assert suppressions[2] == frozenset({"R05_MODULUS", "R08_STR_CONCAT"})
        assert 3 not in suppressions

    def test_named_suppression_drops_finding(self):
        findings = Analyzer().analyze_source(DIRTY_LINE)
        assert not any(f.rule_id == "R08_STR_CONCAT" for f in findings)

    def test_blanket_suppression(self):
        source = DIRTY_LINE.replace("[R08_STR_CONCAT]", "")
        findings = Analyzer().analyze_source(source)
        assert not any(f.rule_id == "R08_STR_CONCAT" for f in findings)

    def test_wrong_rule_name_keeps_finding(self):
        source = DIRTY_LINE.replace("R08_STR_CONCAT", "R05_MODULUS")
        findings = Analyzer().analyze_source(source)
        assert any(f.rule_id == "R08_STR_CONCAT" for f in findings)

    def test_suppression_only_affects_its_line(self):
        source = (
            "def f(names, xs):\n"
            "    out = ''\n"
            "    for n in names:\n"
            "        out += n  # pepo: ignore[R08_STR_CONCAT]\n"
            "    acc = ''\n"
            "    for x in xs:\n"
            "        acc += x\n"
            "    return out + acc\n"
        )
        findings = Analyzer().analyze_source(source)
        concat = [f for f in findings if f.rule_id == "R08_STR_CONCAT"]
        assert len(concat) == 1
        assert concat[0].line == 7

    def test_apply_suppressions_returns_both_sides(self):
        kept, suppressed = Analyzer().analyze_source_full(DIRTY_LINE)
        findings = kept + suppressed
        kept, suppressed = apply_suppressions(findings, DIRTY_LINE)
        assert any(f.rule_id == "R08_STR_CONCAT" for f in suppressed)
        assert not any(f.rule_id == "R08_STR_CONCAT" for f in kept)

    def test_case_insensitive_marker(self):
        source = DIRTY_LINE.replace("pepo: ignore", "PEPO: IGNORE")
        findings = Analyzer().analyze_source(source)
        assert not any(f.rule_id == "R08_STR_CONCAT" for f in findings)
