"""Copy loops → bulk copies (rule R10).

* ``for i in range(len(src)): dst[i] = src[i]``  →  ``dst[:] = src``
* ``for x in src: dst.append(x)``                →  ``dst.extend(src)``

The indexed form requires the range argument to be exactly
``len(src)`` so the slice assignment covers the same extent.
"""

from __future__ import annotations

import ast

from repro.optimizer.transforms.base import AppliedChange, FixContext, Transform


class ArrayCopyTransform(Transform):
    transform_id = "T_ARRAY_COPY"
    rule_id = "R10_ARRAY_COPY"
    application_order = 12

    def fix(self, node: ast.For, ctx: FixContext) -> AppliedChange | None:
        # The detector matched one of the two copy shapes; what is left
        # to check is that the bulk form covers the same iterations.
        if node.orelse:
            return None
        body = node.body[0]
        if isinstance(body, ast.Assign):
            dst = body.targets[0].value.id  # type: ignore[attr-defined]
            src = body.value.value.id  # type: ignore[attr-defined]
            bound = node.iter.args[0] if len(node.iter.args) == 1 else None
            if not (
                isinstance(bound, ast.Call)
                and isinstance(bound.func, ast.Name)
                and bound.func.id == "len"
                and len(bound.args) == 1
                and isinstance(bound.args[0], ast.Name)
                and bound.args[0].id == src
            ):
                return None
            stmt: ast.stmt = ast.Assign(
                targets=[
                    ast.Subscript(
                        value=ast.Name(id=dst, ctx=ast.Load()),
                        slice=ast.Slice(),
                        ctx=ast.Store(),
                    )
                ],
                value=ast.Name(id=src, ctx=ast.Load()),
            )
            description = f"indexed copy loop → {dst}[:] = {src}"
        else:
            dst = body.value.func.value.id  # type: ignore[attr-defined]
            stmt = ast.Expr(
                value=ast.Call(
                    func=ast.Attribute(
                        value=ast.Name(id=dst, ctx=ast.Load()),
                        attr="extend",
                        ctx=ast.Load(),
                    ),
                    args=[node.iter],
                    keywords=[],
                )
            )
            description = f"append-copy loop → {dst}.extend(…)"
        ctx.replace(node, stmt)
        return self._change(node, description)
