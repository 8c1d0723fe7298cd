"""String ``+=`` accumulation → list append + ``''.join`` (rule R08).

Pattern rewritten::

    out = ""                 →    _out_parts = []
    for …:                        for …:
        out += piece                  _out_parts.append(piece)
    use(out)                      out = "".join(_out_parts)
                                  use(out)

Preconditions (all checked):

* the initialisation ``out = <str constant>`` is the statement
  immediately before the loop, in the same block;
* inside the loop, ``out`` appears *only* as the target of
  ``out += <expr>`` aug-assignments (never read, never reassigned);
* a non-empty initial value seeds the parts list.
"""

from __future__ import annotations

import ast
from itertools import takewhile

from repro.optimizer.transforms.base import AppliedChange, FixContext, Transform

_SCOPE_BOUNDARIES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


class StringBuilderTransform(Transform):
    transform_id = "T_STR_CONCAT"
    rule_id = "R08_STR_CONCAT"
    application_order = 10

    def fix(self, node: ast.stmt, ctx: FixContext) -> AppliedChange | None:
        # The finding anchors one ``out += piece``; the rewrite covers
        # the innermost enclosing loop that ``out = <str>`` precedes.
        if not (
            isinstance(node, ast.AugAssign)
            and isinstance(node.op, ast.Add)
            and isinstance(node.target, ast.Name)
        ):
            return None
        name = node.target.id
        in_scope = takewhile(
            lambda ancestor: not isinstance(ancestor, _SCOPE_BOUNDARIES),
            ctx.ancestors(node),
        )
        loop = next((a for a in in_scope if _init_before(a, name, ctx)), None)
        if loop is None or not _only_accumulated(loop, name):
            return None
        init = _init_before(loop, name, ctx)
        parts_name = f"_{name}_parts"
        appends = [
            (
                aug,
                ast.Expr(
                    value=ast.Call(
                        func=ast.Attribute(
                            value=ast.Name(id=parts_name, ctx=ast.Load()),
                            attr="append",
                            ctx=ast.Load(),
                        ),
                        args=[aug.value],
                        keywords=[],
                    )
                ),
            )
            for aug in ast.walk(loop)
            if isinstance(aug, ast.AugAssign)
            and isinstance(aug.target, ast.Name)
            and aug.target.id == name
        ]
        for aug, append in appends:
            ctx.replace(aug, append)
        seed: list[ast.expr] = (
            [ast.Constant(init.value.value)] if init.value.value else []
        )
        ctx.replace(
            init,
            ast.Assign(
                targets=[ast.Name(id=parts_name, ctx=ast.Store())],
                value=ast.List(elts=seed, ctx=ast.Load()),
            ),
        )
        join_call = ast.Assign(
            targets=[ast.Name(id=name, ctx=ast.Store())],
            value=ast.Call(
                func=ast.Attribute(
                    value=ast.Constant(""), attr="join", ctx=ast.Load()
                ),
                args=[ast.Name(id=parts_name, ctx=ast.Load())],
                keywords=[],
            ),
        )
        ctx.insert(loop, join_call, after=True)
        ctx.touch(loop)
        return self._change(
            loop, f"accumulate {name!r} via {parts_name}.append + ''.join"
        )


def _init_before(loop: ast.AST, name: str, ctx: FixContext) -> ast.Assign | None:
    """``name = <str constant>`` when ``loop`` is a loop and that is the
    statement before it."""
    if not isinstance(loop, (ast.For, ast.While)):
        return None
    body = ctx.body_of(loop)
    index = [id(stmt) for stmt in body].index(id(loop))
    init = body[index - 1] if index else None
    if (
        isinstance(init, ast.Assign)
        and len(init.targets) == 1
        and isinstance(init.targets[0], ast.Name)
        and init.targets[0].id == name
        and isinstance(init.value, ast.Constant)
        and isinstance(init.value.value, str)
    ):
        return init
    return None


def _only_accumulated(loop: ast.stmt, name: str) -> bool:
    """Inside ``loop``, ``name`` is never read and every aug-assignment
    to it is a ``+=``."""
    for node in ast.walk(loop):
        if isinstance(node, ast.AugAssign) and (
            isinstance(node.target, ast.Name) and node.target.id == name
        ):
            if not isinstance(node.op, ast.Add):
                return False
        elif isinstance(node, ast.Name) and node.id == name:
            # Any other appearance (read or write) breaks the precondition
            # unless it is the target Name inside one of the AugAssigns,
            # which ast.walk visits separately — detect via context.
            if isinstance(node.ctx, ast.Load):
                return False
    return True
