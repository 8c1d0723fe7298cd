"""Modulus → bitmask (rule R05).

``i % 2**k`` equals ``i & (2**k - 1)`` for every Python int (including
negatives, thanks to arbitrary-precision two's-complement semantics of
``&``), but *not* for floats.  The transform therefore fires only when
the left operand is provably an int: a variable bound by an enclosing
``for … in range(...)`` loop.
"""

from __future__ import annotations

import ast

from repro.optimizer.transforms.base import AppliedChange, Transform


def _is_power_of_two(value: object) -> bool:
    return (
        isinstance(value, int)
        and not isinstance(value, bool)
        and value > 0
        and (value & (value - 1)) == 0
    )


class ModulusToBitmask(Transform):
    transform_id = "T_MODULUS_POW2"
    rule_id = "R05_MODULUS"
    application_order = 21

    def apply(self, tree: ast.Module) -> tuple[ast.Module, list[AppliedChange]]:
        changes: list[AppliedChange] = []
        rewriter = _Rewriter(changes, self._change)
        tree = rewriter.visit(tree)
        if changes:
            ast.fix_missing_locations(tree)
        return tree, changes


class _Rewriter(ast.NodeTransformer):
    def __init__(self, changes: list[AppliedChange], make_change) -> None:
        self._changes = changes
        self._make_change = make_change
        self._range_vars: list[set[str]] = [set()]

    def visit_For(self, node: ast.For) -> ast.For:
        bound: set[str] = set()
        if (
            isinstance(node.target, ast.Name)
            and isinstance(node.iter, ast.Call)
            and isinstance(node.iter.func, ast.Name)
            and node.iter.func.id == "range"
        ):
            bound = {node.target.id}
        self._range_vars.append(self._range_vars[-1] | bound)
        try:
            self.generic_visit(node)
        finally:
            self._range_vars.pop()
        return node

    def visit_BinOp(self, node: ast.BinOp) -> ast.AST:
        self.generic_visit(node)
        if (
            isinstance(node.op, ast.Mod)
            and isinstance(node.right, ast.Constant)
            and _is_power_of_two(node.right.value)
            and isinstance(node.left, ast.Name)
            and node.left.id in self._range_vars[-1]
        ):
            mask = node.right.value - 1
            replacement = ast.BinOp(
                left=node.left,
                op=ast.BitAnd(),
                right=ast.Constant(mask),
            )
            self._changes.append(
                self._make_change(
                    node,
                    f"{node.left.id} % {node.right.value} → "
                    f"{node.left.id} & {mask}",
                )
            )
            return ast.copy_location(replacement, node)
        return node
