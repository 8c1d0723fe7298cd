"""R11 — 2-D traversal order (paper: column traversal +793 %).

On row-major (C-ordered) data, iterating the *second* index in the
outer loop touches memory with a stride of one row per step — the cache
effect the HPC guides demonstrate with ``np.median(c, axis=0)`` vs
``axis=1``.  The rule matches nested loops where an access ``a[i][j]``
or ``a[i, j]`` uses the *inner* loop variable as the first index and
the *outer* loop variable as the second — the column-major pattern.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analyzer.findings import Finding, Severity
from repro.analyzer.rules.base import AnalysisContext, Rule


class TraversalRule(Rule):
    rule_id = "R11_TRAVERSAL"
    interested_types = (ast.For,)
    # Anchored on nested for loops.
    triggers = ("for",)
    semantic_facts = ("hotness",)

    def check(self, node: ast.AST, ctx: AnalysisContext) -> Iterator[Finding]:
        if not isinstance(node, ast.For) or not isinstance(node.target, ast.Name):
            return
        outer_var = node.target.id
        for stmt in node.body:
            for inner in ast.walk(stmt):
                if not (
                    isinstance(inner, ast.For)
                    and isinstance(inner.target, ast.Name)
                ):
                    continue
                inner_var = inner.target.id
                if inner_var == outer_var:
                    continue
                access = self._column_major_access(inner, inner_var, outer_var)
                if access is not None:
                    yield ctx.finding(
                        self.rule_id,
                        access,
                        f"column-major traversal: inner index {inner_var!r} is "
                        f"the row (first) index while outer {outer_var!r} is "
                        "the column; swap the loops for row-major order.",
                        severity=Severity.HIGH,
                    )
                    return  # one finding per outer loop

    @staticmethod
    def _column_major_access(
        inner: ast.For, inner_var: str, outer_var: str
    ) -> ast.AST | None:
        for node in ast.walk(inner):
            if not isinstance(node, ast.Subscript):
                continue
            first, second = _two_indices(node)
            if first is None or second is None:
                continue
            if first == inner_var and second == outer_var:
                return node
        return None


def _two_indices(node: ast.Subscript) -> tuple[str | None, str | None]:
    """Extract index names from ``a[i][j]`` or ``a[i, j]`` patterns
    (shared with the R11 transform, which swaps the loops they name)."""
    # a[i, j]
    if isinstance(node.slice, ast.Tuple) and len(node.slice.elts) == 2:
        first, second = node.slice.elts
        return _name(first), _name(second)
    # a[i][j]: this node is the outer subscript (index j); its value is a[i].
    if isinstance(node.value, ast.Subscript):
        return _name(node.value.slice), _name(node.slice)
    return None, None


def _name(node: ast.expr) -> str | None:
    return node.id if isinstance(node, ast.Name) else None
