"""AST source instrumentation — the ``JEPOInsert`` analog.

The paper generates a ``JEPOInsert.java`` that injects energy
measurement code "for each method in the project and then run[s] the
earlier selected main class".  The Python translation:

1. :func:`find_main_classes` locates entry points — modules with an
   ``if __name__ == "__main__"`` guard or a top-level ``main`` function
   (the paper's "classes that have main method"; when several exist the
   caller chooses, as JEPO asks the user).
2. :class:`SourceInstrumenter` rewrites a module's AST so that every
   function body is wrapped in ``with __pepo_probe__("<name>"): ...``,
   preserving docstrings and signatures.
3. :meth:`SourceInstrumenter.run_path` executes the instrumented module
   with a :class:`~repro.profiler.probes.ProbeRuntime` bound to
   ``__pepo_probe__``, returning the populated profile.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.profiler.probes import ProbeRuntime
from repro.profiler.records import ProfileResult
from repro.rapl.backends import RaplBackend
from repro.sweep.engine import project_files

PROBE_NAME = "__pepo_probe__"


def _has_main_guard(tree: ast.Module) -> bool:
    """Detect ``if __name__ == "__main__":`` (either operand order)."""
    for node in tree.body:
        if not isinstance(node, ast.If):
            continue
        test = node.test
        if not (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], ast.Eq)):
            continue
        operands = [test.left, *test.comparators]
        names = {o.id for o in operands if isinstance(o, ast.Name)}
        consts = {o.value for o in operands if isinstance(o, ast.Constant)}
        if "__name__" in names and "__main__" in consts:
            return True
    return False


def _has_main_function(tree: ast.Module) -> bool:
    return any(
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name == "main"
        for node in tree.body
    )


def find_main_classes(project_dir: str | Path) -> list[Path]:
    """All modules under ``project_dir`` that look like entry points.

    Returns paths sorted for determinism.  Unparseable files are
    skipped (a project may contain templates or broken scratch files).
    """
    # A stale ``__pycache__`` copy or a vendored environment is never
    # offered as the project's entry point.
    paths = project_files(project_dir)
    roots = []
    for path in paths:
        try:
            tree = ast.parse(path.read_text())
        except (SyntaxError, UnicodeDecodeError):
            continue
        if _has_main_guard(tree) or _has_main_function(tree):
            roots.append(path)
    return roots


class _FunctionWrapper(ast.NodeTransformer):
    """Wraps each function body in a probe ``with`` block."""

    def __init__(self, module_name: str, filename: str) -> None:
        self.module_name = module_name
        self.filename = filename
        self._scope: list[str] = []
        self.instrumented = 0

    # Track class nesting so probe names read module.Class.method.
    def visit_ClassDef(self, node: ast.ClassDef) -> ast.ClassDef:
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()
        return node

    def _wrap(self, node: ast.FunctionDef | ast.AsyncFunctionDef):
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

        qualname = ".".join((self.module_name, *self._scope, node.name))
        body = list(node.body)
        prefix: list[ast.stmt] = []
        # Keep a leading docstring outside the with so __doc__ survives.
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            prefix.append(body.pop(0))
        if not body:
            body = [ast.Pass()]
        probe_call = ast.Call(
            func=ast.Name(id=PROBE_NAME, ctx=ast.Load()),
            args=[
                ast.Constant(qualname),
                ast.Constant(self.filename),
                ast.Constant(node.lineno),
            ],
            keywords=[],
        )
        with_stmt = ast.With(
            items=[ast.withitem(context_expr=probe_call, optional_vars=None)],
            body=body,
        )
        node.body = [*prefix, with_stmt]
        self.instrumented += 1
        return node

    def visit_FunctionDef(self, node: ast.FunctionDef) -> ast.FunctionDef:
        return self._wrap(node)

    def visit_AsyncFunctionDef(
        self, node: ast.AsyncFunctionDef
    ) -> ast.AsyncFunctionDef:
        return self._wrap(node)


class SourceInstrumenter:
    """Rewrites Python source to insert per-method energy probes."""

    def __init__(self, backend: RaplBackend | None = None) -> None:
        self._backend = backend

    def instrument_source(
        self, source: str, module_name: str = "__main__", filename: str = "<string>"
    ) -> tuple[str, int]:
        """Return (instrumented source, number of functions probed)."""
        tree = ast.parse(source, filename=filename)
        wrapper = _FunctionWrapper(module_name=module_name, filename=filename)
        tree = wrapper.visit(tree)
        ast.fix_missing_locations(tree)
        return ast.unparse(tree), wrapper.instrumented

    def run_source(
        self,
        source: str,
        module_name: str = "__main__",
        filename: str = "<string>",
        extra_globals: dict | None = None,
    ) -> ProfileResult:
        """Instrument and execute ``source``; return the profile.

        The module runs with ``__name__`` set to ``module_name`` so
        ``if __name__ == "__main__"`` guards fire when profiling an
        entry point, matching JEPO running the selected main class.
        """
        instrumented, _count = self.instrument_source(source, module_name, filename)
        runtime = ProbeRuntime(self._backend)
        namespace: dict = {
            "__name__": module_name,
            "__file__": filename,
            PROBE_NAME: runtime,
        }
        if extra_globals:
            namespace.update(extra_globals)
        code = compile(instrumented, filename, "exec")
        exec(code, namespace)  # noqa: S102 - executing the user's own project
        return runtime.result

    def run_path(self, path: str | Path, module_name: str = "__main__") -> ProfileResult:
        """Instrument and execute a file, like JEPO running the project."""
        path = Path(path)
        return self.run_source(
            path.read_text(), module_name=module_name, filename=str(path)
        )
