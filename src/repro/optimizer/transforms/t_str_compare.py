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

from repro.optimizer.transforms.base import AppliedChange, FixContext, Transform


class FindToInTransform(Transform):
    transform_id = "T_STR_COMPARE"
    rule_id = "R09_STR_COMPARE"
    application_order = 20

    def fix(self, node: ast.Compare, ctx: FixContext) -> AppliedChange | None:
        # The detector matched a find()/rfind() sentinel compare or a
        # strcoll() == 0 test; the rewrite needs plain positional calls.
        call, op = node.left, node.ops[0]
        if call.keywords:  # type: ignore[attr-defined]
            return None
        func = call.func  # type: ignore[attr-defined]
        if getattr(func, "attr", None) in ("find", "rfind"):
            if len(call.args) != 1:  # type: ignore[attr-defined]
                return None
            # != -1, > -1 and >= 0 test presence; == -1 and < 0 absence.
            positive = isinstance(op, (ast.NotEq, ast.Gt, ast.GtE))
            replacement = ast.Compare(
                left=call.args[0],  # type: ignore[attr-defined]
                ops=[ast.In() if positive else ast.NotIn()],
                comparators=[func.value],
            )
            description = ".find() sentinel compare → " + (
                "`in`" if positive else "`not in`"
            )
        else:
            if len(call.args) != 2:  # type: ignore[attr-defined]
                return None
            a, b = call.args  # type: ignore[attr-defined]
            replacement = ast.Compare(left=a, ops=[op], comparators=[b])
            description = "strcoll() == 0 → direct equality"
        ctx.replace(node, replacement)
        return self._change(node, description)
