"""Conditional-expression assignment in loops → if/else statement (rule R06).

``x = a if c else b`` as a loop-body statement becomes::

    if c:
        x = a
    else:
        x = b

Only plain single-Name-target assignments are rewritten; conditional
expressions nested inside larger expressions stay (extracting them
would need a temporary and rarely wins).
"""

from __future__ import annotations

import ast

from repro.optimizer.transforms.base import AppliedChange, FixContext, Transform


class TernaryToIfTransform(Transform):
    transform_id = "T_TERNARY"
    rule_id = "R06_TERNARY"
    application_order = 22

    def fix(self, node: ast.IfExp, ctx: FixContext) -> AppliedChange | None:
        stmt = ctx.parent(node)
        if not (
            isinstance(stmt, ast.Assign)
            and stmt.value is node
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and _per_iteration(stmt, ctx)
        ):
            return None
        ctx.replace(stmt, _rewrite(stmt))
        return self._change(stmt, "ternary assignment → if/else statement")


def _per_iteration(stmt: ast.stmt, ctx: FixContext) -> bool:
    """``stmt`` runs once per iteration of an enclosing loop.

    A def's body is not per-iteration even inside a loop.
    """
    boundary = next(
        (
            ancestor
            for ancestor in ctx.ancestors(stmt)
            if isinstance(
                ancestor, (ast.For, ast.While, ast.FunctionDef, ast.AsyncFunctionDef)
            )
        ),
        None,
    )
    return isinstance(boundary, (ast.For, ast.While))


def _rewrite(stmt: ast.Assign) -> ast.If:
    ifexp: ast.IfExp = stmt.value  # type: ignore[assignment]
    target = stmt.targets[0].id  # type: ignore[union-attr]
    return ast.If(
        test=ifexp.test,
        body=[
            ast.Assign(
                targets=[ast.Name(id=target, ctx=ast.Store())],
                value=ifexp.body,
            )
        ],
        orelse=[
            ast.Assign(
                targets=[ast.Name(id=target, ctx=ast.Store())],
                value=ifexp.orelse,
            )
        ],
    )
