"""Pre-engine traversal context — reference side of the sweep bench.

The :class:`AnalysisContext` and eager :func:`collect_function_info`
exactly as they stood before the cold-sweep hot-path overhaul (multiple
``ast.walk`` passes per function, no memoized bindings).  Consumed only
by :class:`repro.unopt.analyzer.ReferenceAnalyzer`; see
:mod:`repro.unopt.semantics` for the do-not-optimize ground rules.
Rules duck-type the context, so the shipped detectors run against this
class unchanged — which is the point: the bench diff isolates the
engine and semantic layers, not the rules.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analyzer.findings import Finding, Severity, compute_confidence
from repro.analyzer.rules.base import (
    _bound_names,
    collect_module_names,
    target_names,
)

if TYPE_CHECKING:
    from repro.semantics import Binding

    from repro.unopt.semantics import SemanticModel

_BUILTIN_NAMES = frozenset(dir(builtins))


@dataclass
class FunctionInfo:
    """Scope facts for one function, precomputed before rule checks."""

    node: ast.FunctionDef | ast.AsyncFunctionDef
    local_names: set[str] = field(default_factory=set)
    string_locals: set[str] = field(default_factory=set)


class AnalysisContext:
    """Traversal state handed to every rule check (pre-engine shape)."""

    def __init__(
        self,
        filename: str,
        source: str,
        tree: ast.Module,
        semantics: "SemanticModel | None" = None,
    ) -> None:
        from repro.unopt.semantics import build_semantic_model

        self.filename = filename
        self.source_lines = source.splitlines()
        self.tree = tree
        self.module_names = collect_module_names(tree)
        self.loop_stack: list[ast.For | ast.While] = []
        self.function_stack: list[FunctionInfo] = []
        self.semantics = semantics or build_semantic_model(
            tree, filename=filename
        )

    # -- scope queries ---------------------------------------------------

    @property
    def in_loop(self) -> bool:
        return bool(self.loop_stack)

    @property
    def loop_depth(self) -> int:
        return len(self.loop_stack)

    @property
    def current_function(self) -> FunctionInfo | None:
        return self.function_stack[-1] if self.function_stack else None

    def is_local(self, name: str) -> bool:
        fn = self.current_function
        return fn is not None and name in fn.local_names

    def is_module_global(self, name: str) -> bool:
        """Name defined at module level and not shadowed locally."""
        return (
            name in self.module_names
            and not self.is_local(name)
            and name not in _BUILTIN_NAMES
        )

    def is_stringish(self, node: ast.expr) -> bool:
        """Heuristic: does this expression evaluate to a str?"""
        if isinstance(node, ast.Constant):
            return isinstance(node.value, str)
        if isinstance(node, ast.JoinedStr):
            return True
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Mod)):
            return self.is_stringish(node.left) or self.is_stringish(node.right)
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id in ("str", "repr", "format", "chr"):
                return True
            if isinstance(fn, ast.Attribute) and fn.attr in (
                "join", "format", "upper", "lower", "strip", "lstrip", "rstrip",
                "replace", "title", "capitalize", "decode",
            ):
                return True
            return False
        if isinstance(node, ast.Name):
            fn = self.current_function
            if fn is not None and node.id in fn.string_locals:
                return True
        # Fall back to the semantic type table: annotations and
        # cross-statement propagation the syntactic walk cannot see.
        return self.semantics.type_of(node) == "str"

    # -- semantic fact queries ---------------------------------------------

    def resolve(self, node: ast.Name) -> "Binding":
        """Scope/binding resolution for a name at its use site."""
        return self.semantics.resolve(node)

    def type_of(self, node: ast.expr) -> str:
        """Inferred static type (``str | int | … | unknown``)."""
        return self.semantics.type_of(node)

    def excludes_type(self, node: ast.expr, *candidates: str) -> bool:
        """Inferred type is known and contradicts every candidate."""
        return self.semantics.excludes_type(node, *candidates)

    # -- flow-sensitive fact queries ---------------------------------------

    def type_at(self, node: ast.expr) -> str:
        """Type under the flow state reaching the node's program point."""
        return self.semantics.type_at(node)

    def excludes_type_at(self, node: ast.expr, *candidates: str) -> bool:
        """Flow-sensitive type is known and contradicts every candidate."""
        return self.semantics.excludes_type_at(node, *candidates)

    def defs_reaching(self, node: ast.Name):
        """Definitions that may supply this name's value at its use."""
        return self.semantics.defs_reaching(node)

    def is_pure(self, func: ast.AST) -> bool:
        """Conservative: calling ``func`` has no observable effects."""
        return self.semantics.is_pure(func)

    def expression_is_pure(self, expr: ast.expr) -> bool:
        """Conservative: evaluating ``expr`` has no observable effects."""
        return self.semantics.purity.expression_is_pure(expr)

    def call_hotness(self, func: ast.AST) -> int:
        """Max loop depth ``func`` is transitively called from."""
        return self.semantics.call_hotness(func)

    # -- finding construction ---------------------------------------------

    def finding(
        self,
        rule_id: str,
        node: ast.AST,
        message: str,
        severity: Severity = Severity.MEDIUM,
        pure_context: bool = False,
    ) -> Finding:
        """Build a finding anchored to ``node`` with pool metadata."""
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        snippet = ""
        if 1 <= line <= len(self.source_lines):
            snippet = self.source_lines[line - 1].strip()
        from repro.rules import REGISTRY

        entry = REGISTRY.get(rule_id)
        overhead = entry.overhead_percent
        hot_depth = self.semantics.hot_depth(node)
        caller_hotness = 0
        func = self.semantics.enclosing_function(node)
        if func is not None:
            caller_hotness = self.semantics.call_hotness(func)
        return Finding(
            file=self.filename,
            line=line,
            col=col,
            rule_id=rule_id,
            component=entry.python_component,
            message=message,
            suggestion=entry.python_suggestion,
            severity=severity,
            overhead_percent=overhead,
            snippet=snippet,
            confidence=compute_confidence(
                severity, hot_depth + caller_hotness, overhead
            ),
            hot_depth=hot_depth,
            caller_hotness=caller_hotness,
            pure_context=pure_context,
        )


def collect_function_info(
    node: ast.FunctionDef | ast.AsyncFunctionDef, ctx: AnalysisContext
) -> FunctionInfo:
    """Precompute locals and string-typed locals for a function body.

    The pre-engine shape: one full ``ast.walk`` for locals plus two
    more passes for string-typed locals, all eager at function entry.
    """
    info = FunctionInfo(node=node)
    args = node.args
    for arg in (
        *args.posonlyargs, *args.args, *args.kwonlyargs,
        *( [args.vararg] if args.vararg else [] ),
        *( [args.kwarg] if args.kwarg else [] ),
    ):
        info.local_names.add(arg.arg)
    for child in ast.walk(node):
        if child is node:
            continue
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            info.local_names.add(child.name)
        elif isinstance(child, ast.Assign):
            for target in child.targets:
                info.local_names.update(target_names(target))
        elif isinstance(child, (ast.AnnAssign, ast.AugAssign)):
            info.local_names.update(target_names(child.target))
        elif isinstance(child, ast.For):
            info.local_names.update(target_names(child.target))
        elif isinstance(child, ast.withitem) and child.optional_vars:
            info.local_names.update(target_names(child.optional_vars))
        elif isinstance(child, (ast.Import, ast.ImportFrom)):
            info.local_names.update(_bound_names(child))
        elif isinstance(child, ast.Global):
            info.local_names.difference_update(child.names)
    # String-typed locals: single-target assignments from string-ish RHS.
    # Two passes so "a = 'x'; b = a" marks b as well.
    for _ in range(2):
        for child in ast.walk(node):
            if (
                isinstance(child, ast.Assign)
                and len(child.targets) == 1
                and isinstance(child.targets[0], ast.Name)
            ):
                name = child.targets[0].id
                value = child.value
                if isinstance(value, ast.Name):
                    if value.id in info.string_locals:
                        info.string_locals.add(name)
                else:
                    # Temporarily view through ctx with this info active.
                    ctx.function_stack.append(info)
                    try:
                        if ctx.is_stringish(value):
                            info.string_locals.add(name)
                    finally:
                        ctx.function_stack.pop()
    return info
