"""The unified rule registry: catalog completeness, validation, and the
runtime-registration round trip through analyzer, optimizer, and CLI."""

import ast

import pytest

from repro.analyzer.engine import Analyzer
from repro.analyzer.rules.base import Rule
from repro.bench.micro import MicroPair
from repro.optimizer.rewriter import Optimizer
from repro.optimizer.transforms.base import Transform
from repro.rules import REGISTRY, build_default_registry, render_rules_matrix
from repro.rules.registry import RegistryError, RuleRegistry
from repro.rules.spec import RuleSpec


EXPECTED_RULE_IDS = tuple(
    f"R{n:02d}_{name}"
    for n, name in enumerate(
        (
            "NUMERIC_TYPE", "SCI_NOTATION", "BOXING", "GLOBAL_IN_LOOP",
            "MODULUS", "TERNARY", "SHORT_CIRCUIT", "STR_CONCAT",
            "STR_COMPARE", "ARRAY_COPY", "TRAVERSAL", "EXCEPTION_FLOW",
            "OBJECT_CHURN", "APPEND_LOOP", "RANGE_LEN", "DEAD_STORE",
            "INVARIANT_RECOMPUTE", "PURE_MEMOIZE",
        ),
        start=1,
    )
)

TRANSFORM_RULES = {
    "R02_SCI_NOTATION", "R04_GLOBAL_IN_LOOP", "R05_MODULUS", "R06_TERNARY",
    "R08_STR_CONCAT", "R09_STR_COMPARE", "R10_ARRAY_COPY", "R11_TRAVERSAL",
    "R13_OBJECT_CHURN", "R15_RANGE_LEN",
}


class TestBuiltinCatalog:
    def test_all_builtin_rules_registered(self):
        assert tuple(s.rule_id for s in REGISTRY) == EXPECTED_RULE_IDS

    def test_every_spec_complete(self):
        for spec in REGISTRY:
            assert spec.builtin
            assert spec.has_detector
            assert spec.detector.rule_id == spec.rule_id
            assert spec.python_component and spec.python_suggestion
            assert spec.overhead_percent > 0

    def test_table1_vs_extensions(self):
        assert len(REGISTRY.table1_specs()) == 13
        assert tuple(s.rule_id for s in REGISTRY.extension_specs()) == (
            "R14_APPEND_LOOP", "R15_RANGE_LEN", "R16_DEAD_STORE",
            "R17_INVARIANT_RECOMPUTE", "R18_PURE_MEMOIZE",
        )

    def test_transform_coverage(self):
        covered = {s.rule_id for s in REGISTRY if s.has_transform}
        assert covered == TRANSFORM_RULES
        for rule_id in TRANSFORM_RULES:
            assert REGISTRY.has_transform(rule_id)
        assert not REGISTRY.has_transform("R01_NUMERIC_TYPE")

    def test_micro_coverage_is_table1(self):
        with_micro = {s.rule_id for s in REGISTRY if s.has_micro}
        assert with_micro == set(EXPECTED_RULE_IDS[:13])
        assert len(REGISTRY.micro_pairs()) == 13

    def test_paper_exact_overheads(self):
        exact = {
            s.rule_id: s.overhead_percent
            for s in REGISTRY
            if not s.overhead_is_estimate
        }
        assert exact == {
            "R04_GLOBAL_IN_LOOP": 17700.0,
            "R05_MODULUS": 1620.0,
            "R06_TERNARY": 37.0,
            "R09_STR_COMPARE": 33.0,
            "R11_TRAVERSAL": 793.0,
        }

    def test_transform_classes_respect_application_order(self):
        orders = [t.application_order for t in REGISTRY.transform_classes()]
        assert orders == sorted(orders)
        names = [t.__name__ for t in REGISTRY.transform_classes()]
        assert names[0] == "StringBuilderTransform"
        assert names[-1] == "LoopSwapTransform"

    def test_coverage_counts(self):
        assert REGISTRY.coverage_counts() == {
            "rules": 18, "detectors": 18, "transforms": 10, "micros": 13,
        }

    def test_default_registry_validates(self):
        build_default_registry().validate()

    def test_matrix_renders_every_rule(self):
        text = render_rules_matrix()
        for rule_id in EXPECTED_RULE_IDS:
            assert rule_id in text
        assert "18 rules: 18 detectors, 10 transforms, 13 micro-pairs" in text


def _make_spec(**overrides):
    class _Detector(Rule):
        rule_id = "X01_CUSTOM"

        def check(self, node, ctx):
            return iter(())

    defaults = dict(
        rule_id="X01_CUSTOM",
        python_component="Custom thing",
        python_suggestion="Do it the cheap way.",
        detector=_Detector,
        overhead_percent=12.0,
    )
    defaults.update(overrides)
    return RuleSpec(**defaults)


class TestValidation:
    def test_duplicate_id_rejected(self):
        registry = RuleRegistry([_make_spec()])
        with pytest.raises(RegistryError, match="duplicate"):
            registry.register(_make_spec())

    def test_replace_allows_duplicate(self):
        registry = RuleRegistry([_make_spec()])
        registry.register(_make_spec(python_component="v2"), replace=True)
        assert registry.get("X01_CUSTOM").python_component == "v2"

    def test_detector_required(self):
        with pytest.raises(RegistryError, match="detector"):
            RuleRegistry([_make_spec(detector=None)])

    def test_detector_rule_id_must_match(self):
        class WrongDetector(Rule):
            rule_id = "X99_OTHER"

            def check(self, node, ctx):
                return iter(())

        with pytest.raises(RegistryError, match="X99_OTHER"):
            RuleRegistry([_make_spec(detector=WrongDetector)])

    def test_transform_without_matching_detector_rejected(self):
        class OrphanTransform(Transform):
            transform_id = "T_ORPHAN"
            rule_id = "X99_NOBODY"

            def apply(self, tree):
                return tree, []

        with pytest.raises(RegistryError, match="no detector owns it"):
            RuleRegistry([_make_spec(transform=OrphanTransform)])

    def test_micro_pointing_at_unknown_rule_rejected(self):
        stray = MicroPair("X99_NOBODY", "stray", lambda: 1, lambda: 1)
        with pytest.raises(RegistryError, match="unknown rule"):
            RuleRegistry([_make_spec(micro=stray)])

    def test_empty_suggestion_text_rejected(self):
        with pytest.raises(RegistryError, match="pool text"):
            RuleRegistry([_make_spec(python_suggestion="")])

    def test_negative_overhead_rejected(self):
        with pytest.raises(RegistryError, match="non-negative"):
            RuleRegistry([_make_spec(overhead_percent=-1.0)])

    @staticmethod
    def _detector_with_triggers(value):
        class TriggeredDetector(Rule):
            rule_id = "X01_CUSTOM"
            triggers = value

            def check(self, node, ctx):
                return iter(())

        return TriggeredDetector

    @pytest.mark.parametrize(
        "triggers, message",
        [
            ((), "empty triggers"),
            ("for", "tuple of non-empty strings"),
            (("for", ""), "tuple of non-empty strings"),
            (["for"], "tuple of non-empty strings"),
        ],
    )
    def test_detector_triggers_validated(self, triggers, message):
        detector = self._detector_with_triggers(triggers)
        with pytest.raises(RegistryError, match=message):
            RuleRegistry().register(_make_spec(detector=detector))

    @pytest.mark.parametrize("triggers", [None, ("for", "while")])
    def test_valid_detector_triggers_accepted(self, triggers):
        detector = self._detector_with_triggers(triggers)
        registry = RuleRegistry()
        registry.register(_make_spec(detector=detector))
        assert registry.get("X01_CUSTOM").detector.triggers == triggers


# -- runtime registration round trip -----------------------------------


class SpamSleepRule(Rule):
    """Flags calls to a function named ``busy_wait``."""

    rule_id = "X50_BUSY_WAIT"

    def check(self, node, ctx):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "busy_wait"
        ):
            yield ctx.finding(
                self.rule_id, node, "busy_wait() burns energy; use an event."
            )


class SpamSleepTransform(Transform):
    """Renames ``busy_wait`` calls to ``wait_for_event``."""

    transform_id = "T_BUSY_WAIT"
    rule_id = "X50_BUSY_WAIT"
    application_order = 45

    def apply(self, tree):
        changes = []
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "busy_wait"
            ):
                node.func.id = "wait_for_event"
                changes.append(
                    self._change(node, "busy_wait() → wait_for_event()")
                )
        return tree, changes


CUSTOM_SPEC = RuleSpec(
    rule_id="X50_BUSY_WAIT",
    python_component="Busy-wait loops",
    python_suggestion="Block on an event instead of polling in a loop.",
    detector=SpamSleepRule,
    transform=SpamSleepTransform,
    micro=MicroPair(
        "X50_BUSY_WAIT", "poll vs block",
        lambda: sum(range(100)), lambda: sum(range(100)),
    ),
    overhead_percent=500.0,
)

SOURCE = "busy_wait(1)\n"


class TestRuntimeRegistrationRoundTrip:
    def test_external_rule_flows_through_everything(self, capsys, tmp_path):
        from repro.cli.main import main

        REGISTRY.register(CUSTOM_SPEC)
        try:
            # Analyzer picks up the detector.
            findings = Analyzer().analyze_source(SOURCE)
            assert [f.rule_id for f in findings] == ["X50_BUSY_WAIT"]
            assert findings[0].overhead_percent == 500.0
            assert "event" in findings[0].suggestion

            # Suggestion lookup resolves it (but Table I stays Table I).
            assert REGISTRY.get("X50_BUSY_WAIT").python_suggestion.startswith(
                "Block"
            )
            assert len(REGISTRY.table1_specs()) == 13

            # Optimizer applies the transform.
            result = Optimizer().optimize_source(SOURCE)
            assert "wait_for_event(1)" in result.optimized
            assert [c.rule_id for c in result.changes] == ["X50_BUSY_WAIT"]

            # The bench measures its micro-pair.
            assert any(
                p.rule_id == "X50_BUSY_WAIT" for p in REGISTRY.micro_pairs()
            )

            # `pepo rules` lists it; `pepo suggest`/`optimize` act on it.
            path = tmp_path / "poller.py"
            path.write_text(SOURCE)
            assert main(["rules"]) == 0
            assert "X50_BUSY_WAIT" in capsys.readouterr().out
            assert main(["suggest", str(path)]) == 0
            assert "X50_BUSY_WAIT" in capsys.readouterr().out
            assert main(["optimize", str(path)]) == 0
            assert "busy_wait() → wait_for_event()" in capsys.readouterr().out
        finally:
            REGISTRY.unregister("X50_BUSY_WAIT")

        # Gone everywhere once unregistered.
        assert "X50_BUSY_WAIT" not in REGISTRY
        assert not Analyzer().analyze_source(SOURCE)
        assert "X50_BUSY_WAIT" not in render_rules_matrix()
