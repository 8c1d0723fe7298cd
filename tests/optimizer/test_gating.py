"""Transforms skip work no rewrite can use, without changing output.

* The re.compile hoist builds a semantic model only when a loop body
  holds a syntactic candidate (and still builds it before any rewrite).
* A transform that records no change leaves the tree untouched,
  attributes included, and skips the whole-tree location fix-up; one
  that records changes leaves a tree ``compile()`` accepts.
* The range(len()) rewrite's whole-tree scans run only when a matching
  loop exists; nested loops that start to match mid-rewrite still do.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.optimizer.rewriter import Optimizer
from repro.optimizer.transforms import t_object_hoist
from repro.optimizer.transforms.t_object_hoist import RecompileHoistTransform
from repro.optimizer.transforms.t_range_len import RangeLenToEnumerate
from repro.rules import REGISTRY

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
    """Count semantic-model builds made by the re.compile hoist."""
    calls: list[ast.AST] = []
    real = t_object_hoist.build_semantic_model

    def spy(tree, *args, **kwargs):
        calls.append(tree)
        return real(tree, *args, **kwargs)

    monkeypatch.setattr(t_object_hoist, "build_semantic_model", spy)
    return calls


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
        result = _rewrite(RecompileHoistTransform, self.LOOPY)
        assert model_builds == []
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
        assert len(model_builds) == 1
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
        assert len(model_builds) == 1
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
    """Drive the pipeline to fixpoint, checking every single apply."""
    real_fix = ast.fix_missing_locations
    fixups: list[ast.AST] = []

    def spy(node):
        fixups.append(node)
        return real_fix(node)

    monkeypatch.setattr(ast, "fix_missing_locations", spy)
    tree = ast.parse(SOURCES[name], filename=name)
    transforms = REGISTRY.transform_classes()
    for _pass in range(4):
        pass_changed = False
        for transform_class in transforms:
            before = ast.dump(tree, include_attributes=True)
            fixups.clear()
            tree, changes = transform_class().apply(tree)
            label = transform_class.__name__
            if changes:
                pass_changed = True
                _compile_tree(tree, name)
                continue
            assert fixups == [], f"{label} fixed locations without a change"
            assert ast.dump(tree, include_attributes=True) == before, (
                f"{label} mutated the tree without recording a change"
            )
        if not pass_changed:
            break


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
        # the outer loop is rewritten, and the same walk then rewrites it.
        source = (
            "def f(grid):\n"
            "    total = 0\n"
            "    for i in range(len(grid)):\n"
            "        for j in range(len(grid[i])):\n"
            "            total += grid[i][j]\n"
            "    return total\n"
        )
        result = _rewrite(RangeLenToEnumerate, source)
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
