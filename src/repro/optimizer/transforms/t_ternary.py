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

from repro.optimizer.transforms.base import AppliedChange, Transform


class TernaryToIfTransform(Transform):
    transform_id = "T_TERNARY"
    rule_id = "R06_TERNARY"
    application_order = 22

    def apply(self, tree: ast.Module) -> tuple[ast.Module, list[AppliedChange]]:
        changes: list[AppliedChange] = []
        self._walk(tree, in_loop=False, changes=changes)
        if changes:
            ast.fix_missing_locations(tree)
        return tree, changes

    def _walk(self, node: ast.AST, in_loop: bool, changes) -> None:
        for name in ("body", "orelse", "finalbody"):
            body = getattr(node, name, None)
            if not isinstance(body, list):
                continue
            for index, stmt in enumerate(list(body)):
                inner_loop = in_loop or isinstance(node, (ast.For, ast.While))
                if inner_loop and self._matches(stmt):
                    body[index] = ast.copy_location(self._rewrite(stmt), stmt)
                    changes.append(
                        self._change(stmt, "ternary assignment → if/else statement")
                    )
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # A def's body is not per-iteration even inside a loop.
                    child_in_loop = False
                else:
                    child_in_loop = inner_loop or isinstance(
                        stmt, (ast.For, ast.While)
                    )
                self._walk(body[index], child_in_loop, changes)
        for handler in getattr(node, "handlers", []) or []:
            self._walk(handler, in_loop, changes)

    @staticmethod
    def _matches(stmt: ast.stmt) -> bool:
        return (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.IfExp)
        )

    @staticmethod
    def _rewrite(stmt: ast.Assign) -> ast.If:
        ifexp: ast.IfExp = stmt.value  # type: ignore[assignment]
        target = stmt.targets[0]
        return ast.If(
            test=ifexp.test,
            body=[
                ast.Assign(
                    targets=[ast.Name(id=target.id, ctx=ast.Store())],  # type: ignore[union-attr]
                    value=ifexp.body,
                )
            ],
            orelse=[
                ast.Assign(
                    targets=[ast.Name(id=target.id, ctx=ast.Store())],  # type: ignore[union-attr]
                    value=ifexp.orelse,
                )
            ],
        )
