"""Copy loops → bulk copies (rule R10).

* ``for i in range(len(src)): dst[i] = src[i]``  →  ``dst[:] = src``
* ``for x in src: dst.append(x)``                →  ``dst.extend(src)``

The indexed form requires the range argument to be exactly
``len(src)`` so the slice assignment covers the same extent.
"""

from __future__ import annotations

import ast

from repro.optimizer.transforms.base import AppliedChange, Transform, in_loop_statements


class ArrayCopyTransform(Transform):
    transform_id = "T_ARRAY_COPY"
    rule_id = "R10_ARRAY_COPY"
    application_order = 12

    def apply(self, tree: ast.Module) -> tuple[ast.Module, list[AppliedChange]]:
        changes: list[AppliedChange] = []
        for loop, body, index in list(in_loop_statements(tree)):
            if not isinstance(loop, ast.For):
                continue
            replacement = self._indexed(loop) or self._append(loop)
            if replacement is None:
                continue
            stmt, description = replacement
            body[index] = ast.copy_location(stmt, loop)
            changes.append(self._change(loop, description))
        if changes:
            ast.fix_missing_locations(tree)
        return tree, changes

    @staticmethod
    def _indexed(loop: ast.For):
        if not (
            isinstance(loop.target, ast.Name)
            and isinstance(loop.iter, ast.Call)
            and isinstance(loop.iter.func, ast.Name)
            and loop.iter.func.id == "range"
            and len(loop.iter.args) == 1
            and not loop.orelse
            and len(loop.body) == 1
            and isinstance(loop.body[0], ast.Assign)
        ):
            return None
        bound = loop.iter.args[0]
        if not (
            isinstance(bound, ast.Call)
            and isinstance(bound.func, ast.Name)
            and bound.func.id == "len"
            and len(bound.args) == 1
            and isinstance(bound.args[0], ast.Name)
        ):
            return None
        src_of_len = bound.args[0].id
        assign = loop.body[0]
        index = loop.target.id
        if not (
            len(assign.targets) == 1
            and _name_sub(assign.targets[0], index)
            and _name_sub(assign.value, index)
        ):
            return None
        dst = assign.targets[0].value.id  # type: ignore[union-attr]
        src = assign.value.value.id  # type: ignore[union-attr]
        if dst == src or src != src_of_len:
            return None
        stmt = ast.Assign(
            targets=[
                ast.Subscript(
                    value=ast.Name(id=dst, ctx=ast.Load()),
                    slice=ast.Slice(),
                    ctx=ast.Store(),
                )
            ],
            value=ast.Name(id=src, ctx=ast.Load()),
        )
        return stmt, f"indexed copy loop → {dst}[:] = {src}"

    @staticmethod
    def _append(loop: ast.For):
        if not (
            isinstance(loop.target, ast.Name)
            and not loop.orelse
            and len(loop.body) == 1
            and isinstance(loop.body[0], ast.Expr)
            and isinstance(loop.body[0].value, ast.Call)
        ):
            return None
        call = loop.body[0].value
        if not (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "append"
            and isinstance(call.func.value, ast.Name)
            and len(call.args) == 1
            and isinstance(call.args[0], ast.Name)
            and call.args[0].id == loop.target.id
            and not call.keywords
        ):
            return None
        dst = call.func.value.id
        stmt = ast.Expr(
            value=ast.Call(
                func=ast.Attribute(
                    value=ast.Name(id=dst, ctx=ast.Load()),
                    attr="extend",
                    ctx=ast.Load(),
                ),
                args=[loop.iter],
                keywords=[],
            )
        )
        return stmt, f"append-copy loop → {dst}.extend(…)"


def _name_sub(node: ast.expr, index: str) -> bool:
    return (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and isinstance(node.slice, ast.Name)
        and node.slice.id == index
    )
