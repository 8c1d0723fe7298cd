"""The optimizer's pass loop keeps its work to what the findings need.

* Each pass builds exactly one semantic model (in its analysis) and no
  transform builds one; the re.compile hoist reads the pass's model.
* A fix that records no change leaves the tree untouched, attributes
  included; one that records a change leaves a tree ``compile()``
  accepts, and no fix re-locates the whole tree.
* Rewrites that only match after another rewrite (nested ``range(len())``
  loops) happen in the next pass.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.analyzer.engine import Analyzer
from repro.optimizer.rewriter import Optimizer
from repro.optimizer.transforms.t_object_hoist import RecompileHoistTransform
from repro.optimizer.transforms.t_range_len import RangeLenToEnumerate
from repro.rules import REGISTRY
from repro.semantics import model as semantics_model

ROOT = Path(__file__).resolve().parents[2]
CORPUS = sorted((ROOT / "tests" / "analyzer" / "fixtures" / "flow").glob("*.py")) + (
    sorted((ROOT / "examples").glob("*.py"))
)

#: One site for every built-in transform, so each one's changed branch
#: is checked even where the corpus files never trigger it.
EVERY_REWRITE = (
    "import re\n"
    "RATE = 2\n"
    "def every_rewrite(names, grid, seq, s, src, n):\n"
    "    out = ''\n"
    "    for name in names:\n"
    "        out += name\n"
    "    dst = [0] * len(src)\n"
    "    for i in range(len(src)):\n"
    "        dst[i] = src[i]\n"
    "    total = 0\n"
    "    for i in range(n):\n"
    "        pat = re.compile('a+')\n"
    "        total += i % 8\n"
    "        total += RATE\n"
    "        flag = 1 if i else 0\n"
    "        total += 1000000.0\n"
    "    if s.find('x') != -1:\n"
    "        total += 1\n"
    "    for k in range(len(seq)):\n"
    "        total += seq[k]\n"
    "    acc = 0\n"
    "    for j in range(n):\n"
    "        for i in range(n):\n"
    "            acc += grid[i][j]\n"
    "    return out, dst, total, flag, pat, acc\n"
)
SOURCES = {
    path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
    for path in CORPUS
}
SOURCES["<every_rewrite>"] = EVERY_REWRITE


def _rewrite(transform_class, source: str):
    return Optimizer(
        transforms=[transform_class], max_passes=1, report_unfixable=False
    ).optimize_source(source)


@pytest.fixture
def model_builds(monkeypatch):
    """Record every semantic-model build and every pass analysis, in
    order, and fail if a transform builds a model."""
    events: list[str] = []
    in_fix: list[bool] = [False]
    real_init = semantics_model.SemanticModel.__init__
    real_analyze = Analyzer.analyze_tree

    def init(self, *args, **kwargs):
        assert not in_fix[0], "a transform built a semantic model"
        events.append("model")
        real_init(self, *args, **kwargs)

    def analyze(self, *args, **kwargs):
        events.append("pass")
        return real_analyze(self, *args, **kwargs)

    def spy(real):
        def fix(self, node, ctx):
            in_fix[0] = True
            try:
                return real(self, node, ctx)
            finally:
                in_fix[0] = False

        return fix

    monkeypatch.setattr(semantics_model.SemanticModel, "__init__", init)
    monkeypatch.setattr(Analyzer, "analyze_tree", analyze)
    for cls in REGISTRY.transform_classes():
        monkeypatch.setattr(cls, "fix", spy(cls.fix))
    return events


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_one_semantic_model_per_pass(name, model_builds):
    result = Optimizer().optimize_source(SOURCES[name], filename=name)
    passes = model_builds.count("pass")
    assert model_builds == ["pass", "model"] * passes
    # A pass that changes something is followed by one that does not.
    assert passes >= 1 + result.changed


class TestRecompileHoistGate:
    LOOPY = (
        "import re\n"
        "PAT = re.compile('a+')\n"
        "def f(rows, n):\n"
        "    total = 0\n"
        "    for row in rows:\n"
        "        for x in row:\n"
        "            total += x\n"
        "        while n:\n"
        "            n -= 1\n"
        "            m = re.match('b', str(n))\n"
        "    else:\n"
        "        total = -total\n"
        "    for i in range(n):\n"
        "        pat = re.compile(str(i))\n"
        "    return total\n"
    )

    def test_no_candidate_builds_no_model(self, model_builds):
        # The pass's analysis builds the one model; nothing is flagged,
        # so the transform is never asked.
        result = _rewrite(RecompileHoistTransform, self.LOOPY)
        assert model_builds == ["pass", "model"]
        assert not result.changed
        assert result.optimized == self.LOOPY

    def test_candidate_is_still_hoisted(self, model_builds):
        source = (
            "import re\n"
            "def f(lines):\n"
            "    hits = 0\n"
            "    for line in lines:\n"
            "        pat = re.compile('a+')\n"
            "        if pat.match(line):\n"
            "            hits += 1\n"
            "    return hits\n"
        )
        result = _rewrite(RecompileHoistTransform, source)
        assert model_builds == ["pass", "model"]
        assert [c.transform_id for c in result.changes] == ["T_RECOMPILE_HOIST"]
        assert "    pat = re.compile('a+')\n    for line in lines:" in result.optimized

    def test_first_iteration_read_of_outer_binding_still_rejected(
        self, model_builds
    ):
        # The first iteration's ``hits.append(pat)`` sees the outer
        # ``None``; hoisting would make it see the compiled pattern.
        source = (
            "import re\n"
            "def f(lines):\n"
            "    pat = None\n"
            "    hits = []\n"
            "    for line in lines:\n"
            "        hits.append(pat)\n"
            "        pat = re.compile('a+')\n"
            "    return hits\n"
        )
        result = _rewrite(RecompileHoistTransform, source)
        assert model_builds == ["pass", "model"]
        assert not result.changed
        assert result.optimized == source


def _compile_tree(tree: ast.Module, filename: str) -> None:
    """``compile()`` the tree itself, so a missing location fails.

    Sci-notation constants are float subclasses only the unparser
    understands; they are compiled as plain floats and put back.
    """
    swapped = [
        (node, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and type(node.value) is not float
    ]
    for node, value in swapped:
        node.value = float(value)
    try:
        compile(tree, filename, "exec")
    finally:
        for node, value in swapped:
            node.value = value


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_unchanged_tree_is_untouched_and_changed_tree_compiles(
    name, monkeypatch
):
    """Drive the pipeline to fixpoint, checking every single fix."""
    real_fixup = ast.fix_missing_locations
    fixups: list[ast.AST] = []

    def fixup_spy(node):
        fixups.append(node)
        return real_fixup(node)

    def spy(real):
        def fix(self, node, ctx):
            before = ast.dump(ctx.tree, include_attributes=True)
            change = real(self, node, ctx)
            label = type(self).__name__
            if change is not None:
                _compile_tree(ctx.tree, name)
            else:
                assert ast.dump(ctx.tree, include_attributes=True) == before, (
                    f"{label} mutated the tree without recording a change"
                )
            assert not any(isinstance(n, ast.Module) for n in fixups), (
                f"{label} re-located the whole tree"
            )
            return change

        return fix

    monkeypatch.setattr(ast, "fix_missing_locations", fixup_spy)
    for cls in REGISTRY.transform_classes():
        monkeypatch.setattr(cls, "fix", spy(cls.fix))
    result = Optimizer().optimize_source(SOURCES[name], filename=name)
    compile(result.optimized, name, "exec")


def test_every_transform_fires_on_the_sources():
    fired = {
        change.transform_id
        for source in SOURCES.values()
        for change in Optimizer(report_unfixable=False)
        .optimize_source(source)
        .changes
    }
    assert fired == {t.transform_id for t in REGISTRY.transform_classes()}


class TestRangeLenPins:
    def test_nested_loop_matching_only_after_the_outer_rewrite(self):
        # ``range(len(grid[i]))`` becomes ``range(len(grid_item))`` when
        # the outer loop is rewritten; the next pass's analysis flags
        # it, and that pass rewrites it.
        source = (
            "def f(grid):\n"
            "    total = 0\n"
            "    for i in range(len(grid)):\n"
            "        for j in range(len(grid[i])):\n"
            "            total += grid[i][j]\n"
            "    return total\n"
        )
        result = Optimizer(
            transforms=[RangeLenToEnumerate], report_unfixable=False
        ).optimize_source(source)
        assert result.optimized == (
            "def f(grid):\n"
            "    total = 0\n"
            "    for i, grid_item in enumerate(grid):\n"
            "        for j, grid_item_item in enumerate(grid_item):\n"
            "            total += grid_item_item\n"
            "    return total\n"
        )
        assert [(c.line, c.description) for c in result.changes] == [
            (3, "for i in range(len(grid)) → for i, grid_item in enumerate(grid)"),
            (
                4,
                "for j in range(len(grid_item)) → "
                "for j, grid_item_item in enumerate(grid_item)",
            ),
        ]

    def test_independent_nested_loops(self):
        source = (
            "def g(a, b):\n"
            "    s = 0\n"
            "    for i in range(len(a)):\n"
            "        for k in range(len(b)):\n"
            "            s += a[i] * b[k]\n"
            "    return s\n"
        )
        result = _rewrite(RangeLenToEnumerate, source)
        assert result.optimized == (
            "def g(a, b):\n"
            "    s = 0\n"
            "    for i, a_item in enumerate(a):\n"
            "        for k, b_item in enumerate(b):\n"
            "            s += a_item * b_item\n"
            "    return s\n"
        )
        assert [c.line for c in result.changes] == [3, 4]

    def test_module_binding_enumerate_is_left_alone(self):
        source = (
            "def enumerate(xs):\n"
            "    return list(xs)\n"
            "def f(seq):\n"
            "    out = 0\n"
            "    for i in range(len(seq)):\n"
            "        out += seq[i]\n"
            "    return out\n"
        )
        result = Optimizer(report_unfixable=False).optimize_source(source)
        assert not result.changed
        assert result.optimized == source
