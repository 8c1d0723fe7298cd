"""The analyzer builds only the flow facts a rule reads.

* R16 rejects a function syntactically before it asks for any fact: a
  module whose functions hold no candidate assignment builds no CFG
  and no liveness, and one that does builds liveness alone.
* Each solver over a unit's CFG builds on its first query:
  ``type_at`` builds type flow only, ``defs_reaching`` reaching
  definitions only.  ``flow_unit()`` and ``materialize()`` still hand
  out fully solved units.
* A unit holds no reference back to its model, so a model is freed as
  soon as its last reference goes, without the cyclic collector.
* R16's gated output equals the ungated filter of
  ``model.dead_stores(f)`` over the fixtures and generated programs.
"""

from __future__ import annotations

import ast
import gc
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.analyzer import Analyzer
from repro.analyzer.rules.base import AnalysisContext
from repro.analyzer.rules.r16_dead_store import DeadStoreRule, _is_trivial
from repro.semantics import build_semantic_model
from repro.semantics import model as model_module
from tests.strategies import soup_functions

FIXTURES = Path(__file__).parent / "fixtures"

#: Functions with no assignment R16 could report: constant and alias
#: values, a ``_``-prefixed name, tuple and attribute targets, and
#: augmented assignments, spread over nested blocks and defs.
NO_CANDIDATE = (
    "def swap(a, b):\n"
    "    x = 1\n"
    "    y = a\n"
    "    _scratch = a + b\n"
    "    a, b = b, a\n"
    "    return x + y\n"
    "\n"
    "def nested(items):\n"
    "    total = 0\n"
    "    try:\n"
    "        for item in items:\n"
    "            total += item\n"
    "    except ValueError:\n"
    "        total = None\n"
    "    def inner(seed):\n"
    "        inner.calls = seed\n"
    "        return seed\n"
    "    return total, inner\n"
    "\n"
    "class Box:\n"
    "    def set(self, value):\n"
    "        self.value = value\n"
)

#: One dead candidate: ``unused`` is computed and never read.
ONE_CANDIDATE = (
    "def f(a, b):\n"
    "    unused = a * b\n"
    "    return a\n"
)


@pytest.fixture
def builds(monkeypatch):
    """Count CFG and solver builds made through the semantic model."""
    counts = {
        "build_cfg": 0,
        "Liveness": 0,
        "ReachingDefinitions": 0,
        "TypeFlow": 0,
        "TypeTable": 0,
    }
    for name in counts:
        real = getattr(model_module, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(model_module, name, spy)
    return counts


def _r16_only(source: str):
    return Analyzer(rules=[DeadStoreRule]).analyze_source(source)


class TestDeadStoreGate:
    def test_no_candidate_builds_no_cfg_or_liveness(self, builds):
        assert _r16_only(NO_CANDIDATE) == []
        assert builds["build_cfg"] == 0
        assert builds["Liveness"] == 0

    def test_candidate_builds_liveness_alone(self, builds):
        findings = _r16_only(ONE_CANDIDATE)
        assert [(f.rule_id, f.line) for f in findings] == [
            ("R16_DEAD_STORE", 2)
        ]
        assert builds["build_cfg"] == 1
        assert builds["Liveness"] == 1
        assert builds["ReachingDefinitions"] == 0
        assert builds["TypeFlow"] == 0


def _first(tree: ast.AST, node_type: type) -> ast.AST:
    return next(n for n in ast.walk(tree) if isinstance(n, node_type))


class TestSolversBuildOnFirstQuery:
    SOURCE = (
        "def f(n):\n"
        "    fmt = 0\n"
        "    if n:\n"
        "        fmt = '%d'\n"
        "    return fmt % n\n"
    )

    def test_type_at_builds_typeflow_not_reaching(self, builds):
        tree = ast.parse(self.SOURCE)
        model = build_semantic_model(tree)
        use = _first(tree, ast.BinOp).left
        # int on one path, str on the other; the second query reuses
        # the solved unit.
        assert model.type_at(use) == model.type_at(use) == "unknown"
        assert builds["TypeFlow"] == 1
        assert builds["ReachingDefinitions"] == 0
        assert builds["Liveness"] == 0

    def test_defs_reaching_builds_reaching_not_typeflow(self, builds):
        tree = ast.parse(self.SOURCE)
        model = build_semantic_model(tree)
        use = _first(tree, ast.BinOp).left
        assert {d.line for d in model.defs_reaching(use)} == {2, 4}
        model.defs_reaching(use)
        assert builds["ReachingDefinitions"] == 1
        assert builds["TypeFlow"] == 0
        assert builds["TypeTable"] == 0

    def test_flow_unit_is_fully_solved(self, builds):
        tree = ast.parse(self.SOURCE)
        model = build_semantic_model(tree)
        unit = model.flow_unit(tree.body[0])
        assert builds["ReachingDefinitions"] == 1
        assert builds["TypeFlow"] == 1
        assert unit.reaching.definitions()

    def test_materialize_solves_every_unit(self, builds):
        source = self.SOURCE + "\ndef g():\n    return 1\n"
        model = build_semantic_model(ast.parse(source))
        assert model.materialize()["function_units"] == 2
        # Two functions plus the module body.
        assert builds["build_cfg"] == 3
        assert builds["ReachingDefinitions"] == 3
        assert builds["TypeFlow"] == 3

    def test_model_freed_without_the_cycle_collector(self):
        tree = ast.parse(self.SOURCE + ONE_CANDIDATE)
        gc.disable()
        try:
            model = build_semantic_model(tree)
            model.materialize()
            for func in tree.body:
                model.dead_stores(func)
            ref = weakref.ref(model)
            del model
            assert ref() is None
        finally:
            gc.enable()


def _gated(source: str) -> list[tuple[int, int]]:
    kept, suppressed = Analyzer(rules=[DeadStoreRule]).analyze_source_full(
        source
    )
    return sorted((f.line, f.col) for f in kept + suppressed)


def _ungated(source: str) -> list[tuple[int, int]]:
    """R16's filter over ``dead_stores`` for every function, no gate."""
    tree = ast.parse(source)
    model = build_semantic_model(tree)
    ctx = AnalysisContext(
        filename="<string>", source=source, tree=tree, semantics=model
    )
    out = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for name, assign in model.dead_stores(func):
            if (
                not name.startswith("_")
                and not _is_trivial(assign.value)
                and ctx.expression_is_pure(assign.value)
            ):
                out.append((assign.lineno, assign.col_offset))
    return sorted(out)


class TestGateParity:
    @pytest.mark.parametrize(
        "path",
        sorted(FIXTURES.rglob("*.py")),
        ids=lambda path: path.name,
    )
    def test_fixture_corpus(self, path):
        source = path.read_text(encoding="utf-8")
        assert _gated(source) == _ungated(source)

    def test_directed_cases(self):
        assert _gated(ONE_CANDIDATE) == _ungated(ONE_CANDIDATE) == [(2, 4)]
        assert _gated(NO_CANDIDATE) == _ungated(NO_CANDIDATE) == []

    @settings(max_examples=60, deadline=None)
    @given(source=soup_functions())
    def test_generated_programs(self, source):
        compile(source, "<soup>", "exec")  # raises if a draw is not Python
        assert _gated(source) == _ungated(source)
