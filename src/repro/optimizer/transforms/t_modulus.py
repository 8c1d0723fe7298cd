"""Modulus → bitmask (rule R05).

``i % 2**k`` equals ``i & (2**k - 1)`` for every Python int (including
negatives, thanks to arbitrary-precision two's-complement semantics of
``&``), but *not* for floats.  The transform therefore fires only when
the left operand is provably an int: a variable bound by an enclosing
``for … in range(...)`` loop.
"""

from __future__ import annotations

import ast

from repro.analyzer.rules.r05_modulus import is_power_of_two
from repro.optimizer.transforms.base import AppliedChange, FixContext, Transform


class ModulusToBitmask(Transform):
    transform_id = "T_MODULUS_POW2"
    rule_id = "R05_MODULUS"
    application_order = 21

    def fix(self, node: ast.BinOp, ctx: FixContext) -> AppliedChange | None:
        left, right = node.left, node.right
        if not (
            isinstance(right, ast.Constant)
            and is_power_of_two(right.value)
            and isinstance(left, ast.Name)
            and any(_binds_range_index(loop, left.id) for loop in ctx.ancestors(node))
        ):
            return None
        mask = right.value - 1
        ctx.replace(
            node, ast.BinOp(left=left, op=ast.BitAnd(), right=ast.Constant(mask))
        )
        return self._change(
            node, f"{left.id} % {right.value} → {left.id} & {mask}"
        )


def _binds_range_index(node: ast.AST, name: str) -> bool:
    """``node`` is ``for <name> in range(...)``."""
    return (
        isinstance(node, ast.For)
        and isinstance(node.target, ast.Name)
        and node.target.id == name
        and isinstance(node.iter, ast.Call)
        and isinstance(node.iter.func, ast.Name)
        and node.iter.func.id == "range"
    )
