"""Sentinel string comparisons → direct tests (rule R09).

* ``s.find(sub) != -1`` / ``>= 0`` / ``> -1``  →  ``sub in s``
* ``s.find(sub) == -1`` / ``< 0``              →  ``sub not in s``
* ``locale.strcoll(a, b) == 0``                →  ``a == b``
* ``locale.strcoll(a, b) != 0``                →  ``a != b``

``find`` with start/end arguments is left alone (the slice semantics
have no direct ``in`` equivalent).
"""

from __future__ import annotations

import ast

from repro.optimizer.transforms.base import AppliedChange, Transform


class FindToInTransform(Transform):
    transform_id = "T_STR_COMPARE"
    rule_id = "R09_STR_COMPARE"
    application_order = 20

    def apply(self, tree: ast.Module) -> tuple[ast.Module, list[AppliedChange]]:
        changes: list[AppliedChange] = []
        tree = _Rewriter(changes, self._change).visit(tree)
        if changes:
            ast.fix_missing_locations(tree)
        return tree, changes


def _minus_one(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and node.operand.value == 1
    )


def _zero(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value == 0


class _Rewriter(ast.NodeTransformer):
    def __init__(self, changes, make_change) -> None:
        self._changes = changes
        self._make_change = make_change

    def visit_Compare(self, node: ast.Compare) -> ast.AST:
        self.generic_visit(node)
        if len(node.ops) != 1:
            return node
        left, op, right = node.left, node.ops[0], node.comparators[0]

        find = self._find_call(left)
        if find is not None:
            haystack, needle = find
            positive = (
                (isinstance(op, ast.NotEq) and _minus_one(right))
                or (isinstance(op, ast.GtE) and _zero(right))
                or (isinstance(op, ast.Gt) and _minus_one(right))
            )
            negative = (isinstance(op, ast.Eq) and _minus_one(right)) or (
                isinstance(op, ast.Lt) and _zero(right)
            )
            if positive or negative:
                replacement = ast.Compare(
                    left=needle,
                    ops=[ast.In() if positive else ast.NotIn()],
                    comparators=[haystack],
                )
                self._changes.append(
                    self._make_change(
                        node,
                        ".find() sentinel compare → "
                        + ("`in`" if positive else "`not in`"),
                    )
                )
                return ast.copy_location(replacement, node)

        coll = self._strcoll_call(left)
        if coll is not None and _zero(right) and isinstance(op, (ast.Eq, ast.NotEq)):
            a, b = coll
            replacement = ast.Compare(left=a, ops=[op], comparators=[b])
            self._changes.append(
                self._make_change(node, "strcoll() == 0 → direct equality")
            )
            return ast.copy_location(replacement, node)
        return node

    @staticmethod
    def _find_call(node: ast.expr):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("find", "rfind")
            and len(node.args) == 1
            and not node.keywords
        ):
            return node.func.value, node.args[0]
        return None

    @staticmethod
    def _strcoll_call(node: ast.expr):
        if not (isinstance(node, ast.Call) and len(node.args) == 2):
            return None
        func = node.func
        is_strcoll = (
            isinstance(func, ast.Attribute) and func.attr == "strcoll"
        ) or (isinstance(func, ast.Name) and func.id == "strcoll")
        if is_strcoll and not node.keywords:
            return node.args[0], node.args[1]
        return None
