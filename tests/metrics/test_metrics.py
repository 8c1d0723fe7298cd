"""Tests for the code-metrics substrate (Table II machinery)."""

import pytest

from repro.metrics import (
    build_dependency_graph,
    closure_metrics,
    count_module,
)
from repro.metrics.loc import count_loc


class TestCountLoc:
    def test_blank_and_comment_lines_excluded(self):
        source = "# header\n\nx = 1\n   \n# more\ny = 2\n"
        assert count_loc(source) == 2

    def test_empty_source(self):
        assert count_loc("") == 0


class TestCountModule:
    def test_counts(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "CONSTANT = 1\n"
            "OTHER: int = 2\n"
            "def free():\n"
            "    return 1\n"
            "class Thing:\n"
            "    level = 'class attr'\n"
            "    def __init__(self):\n"
            "        self.x = 1\n"
            "        self.y = 2\n"
            "    def method(self):\n"
            "        return self.x\n"
        )
        metrics = count_module(path)
        assert metrics.classes == 1
        assert metrics.methods == 3  # free, __init__, method
        # module: CONSTANT, OTHER; class: level, x, y
        assert metrics.attributes == 5
        assert metrics.loc == 11

    def test_aggregate_addition(self, tmp_path):
        a = tmp_path / "a.py"
        b = tmp_path / "b.py"
        a.write_text("def f():\n    pass\n")
        b.write_text("def g():\n    pass\nX = 1\n")
        total = count_module(a) + count_module(b)
        assert total.methods == 2
        assert total.attributes == 1
        assert total.loc == 5

    def test_syntax_error_propagates(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text("def broken(:\n")
        with pytest.raises(SyntaxError):
            count_module(path)


def make_project(tmp_path):
    """pkg/{__init__,a,b,sub/{__init__,c}} with a→b, a→sub.c, b→numpy."""
    root = tmp_path / "pkg"
    (root / "sub").mkdir(parents=True)
    (root / "__init__.py").write_text("")
    (root / "a.py").write_text(
        "from pkg import b\nfrom pkg.sub.c import helper\n"
        "def fa():\n    return b.fb() + helper()\n"
    )
    (root / "b.py").write_text(
        "import numpy\ndef fb():\n    return 1\n"
    )
    (root / "sub" / "__init__.py").write_text("")
    (root / "sub" / "c.py").write_text("def helper():\n    return 2\n")
    return root


class TestDependencyGraph:
    def test_modules_discovered(self, tmp_path):
        graph = build_dependency_graph(make_project(tmp_path), "pkg")
        assert "pkg.a" in graph.modules
        assert "pkg.sub.c" in graph.modules
        assert "pkg" in graph.modules  # the package __init__

    def test_closure_follows_imports(self, tmp_path):
        graph = build_dependency_graph(make_project(tmp_path), "pkg")
        closure = graph.closure("pkg.a")
        assert {"pkg.a", "pkg.b", "pkg.sub.c"} <= closure

    def test_leaf_closure_is_self(self, tmp_path):
        graph = build_dependency_graph(make_project(tmp_path), "pkg")
        assert graph.closure("pkg.sub.c") == {"pkg.sub.c"}

    def test_external_imports_counted(self, tmp_path):
        graph = build_dependency_graph(make_project(tmp_path), "pkg")
        # closure(a) = {a, b, sub.c} internal + numpy external (via b)
        assert graph.dependency_count("pkg.a") == 4

    def test_unknown_module_rejected(self, tmp_path):
        graph = build_dependency_graph(make_project(tmp_path), "pkg")
        with pytest.raises(KeyError):
            graph.closure("pkg.nope")

    def test_relative_import_resolution(self, tmp_path):
        root = tmp_path / "rel"
        root.mkdir()
        (root / "__init__.py").write_text("")
        (root / "x.py").write_text("from . import y\n")
        (root / "y.py").write_text("Z = 1\n")
        graph = build_dependency_graph(root, "rel")
        # `from . import y` resolves to the submodule rel.y directly.
        assert "rel.y" in graph.closure("rel.x")

    def test_vendored_environment_is_not_a_module(self, tmp_path):
        # A project's .venv/ holds site-packages, not the project: it
        # must not add modules to Table II's dependency metrics.
        root = make_project(tmp_path)
        (root / ".venv" / "lib").mkdir(parents=True)
        (root / ".venv" / "lib" / "x.py").write_text("import numpy\n")
        (root / "__pycache__").mkdir()
        (root / "__pycache__" / "stale.py").write_text("X = 1\n")
        graph = build_dependency_graph(root, "pkg")
        assert not any(".venv" in name for name in graph.modules)
        assert not any("__pycache__" in name for name in graph.modules)
        assert graph.modules == build_dependency_graph(
            make_project(tmp_path / "clean"), "pkg"
        ).modules

    def test_nondirectory_rejected(self, tmp_path):
        path = tmp_path / "file.py"
        path.write_text("")
        with pytest.raises(NotADirectoryError):
            build_dependency_graph(path, "x")


class TestClosureMetrics:
    def test_aggregates_over_closure(self, tmp_path):
        root = make_project(tmp_path)
        graph = build_dependency_graph(root, "pkg")
        row = closure_metrics(graph, "pkg.a", "pkg")
        # fa + fb + helper = 3 methods over the closure
        assert row.methods == 3
        assert row.loc >= 7
        assert row.packages == 2  # pkg and pkg.sub
        assert row.dependencies == 4

    def test_leaf_metrics_smaller_than_root(self, tmp_path):
        root = make_project(tmp_path)
        graph = build_dependency_graph(root, "pkg")
        leaf = closure_metrics(graph, "pkg.sub.c", "pkg")
        full = closure_metrics(graph, "pkg.a", "pkg")
        assert leaf.loc < full.loc
        assert leaf.methods < full.methods

    def test_real_package_rows(self):
        """Against the actual repro tree: the Table II generator."""
        from repro.bench.table2 import run_table2

        rows = run_table2()
        assert len(rows) == 10
        for row in rows:
            assert row.loc > 0 and row.methods > 0
