"""Tests for the experiment drivers (fast configurations)."""

import pytest

from repro.bench.table1 import render_table1, run_table1
from repro.bench.table2 import render_table2, run_table2
from repro.bench.table3 import render_table3, run_table3
from repro.bench.table4 import Table4Config, _count_changes, render_table4
from repro.rapl.backends import RealClock, SimulatedBackend
from repro.rules import REGISTRY


class TestMicroPairs:
    def test_thirteen_pairs_cover_all_rules(self):
        pairs = REGISTRY.micro_pairs()
        rule_ids = {pair.rule_id for pair in pairs}
        assert len(pairs) == 13
        assert rule_ids == {s.rule_id for s in REGISTRY.table1_specs()}

    @pytest.mark.parametrize("pair", REGISTRY.micro_pairs(), ids=lambda p: p.rule_id)
    def test_pair_forms_agree(self, pair):
        """The bad and good forms must compute the same result."""
        pair.verify()

    def test_verify_catches_divergence(self):
        from repro.bench.micro import MicroPair

        broken = MicroPair("R05_MODULUS", "broken", lambda: 1, lambda: 2)
        with pytest.raises(AssertionError):
            broken.verify()


class TestTable1Driver:
    def test_rows_complete_and_rendered(self):
        rows = run_table1(
            backend=SimulatedBackend(clock=RealClock()), repeats=3
        )
        assert len(rows) == 13
        paper_exact = [row for row in rows if row.paper_exact]
        assert len(paper_exact) == 5
        text = render_table1(rows)
        assert "Paper Overhead (%)" in text
        assert "Measured (%)" in text


class TestTable2Driver:
    def test_rows_and_render(self):
        rows = run_table2()
        assert [r.classifier for r in rows][0] == "J48"
        assert "LOC" in render_table2(rows)


class TestTable3Driver:
    def test_rows_and_render(self):
        rows = run_table3(n=500)
        assert len(rows) == 8
        assert "Nominal" in render_table3(rows)


class TestTable4Config:
    def test_defaults_valid(self):
        config = Table4Config()
        assert config.folds >= 2

    def test_too_few_instances_rejected(self):
        with pytest.raises(ValueError):
            Table4Config(n_instances=5, folds=5)

    def test_unknown_classifier_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            Table4Config(classifiers=("Quantum Tree",))

    def test_subset_selection(self):
        config = Table4Config(classifiers=("J48", "IBk"))
        assert config.classifiers == ("J48", "IBk")

    def test_changes_counter_positive(self):
        from repro.unopt.classifiers import UnoptJ48

        assert _count_changes(UnoptJ48) > 10

    def test_single_classifier_run(self):
        """One full Table IV row end-to-end, minimal size."""
        from repro.bench.table4 import run_table4

        rows = run_table4(
            Table4Config(
                n_instances=120, folds=3, repeats=3, classifiers=("Naive Bayes",)
            ),
            backend=SimulatedBackend(clock=RealClock()),
        )
        assert len(rows) == 1
        row = rows[0]
        assert row.classifier == "Naive Bayes"
        assert row.changes > 0
        assert row.unopt_accuracy > 0.4
        assert row.accuracy_drop == pytest.approx(0.0, abs=1.0)
        assert "Naive Bayes" in render_table4(rows)
