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

from repro.optimizer.transforms.base import AppliedChange, Transform, in_loop_statements


class StringBuilderTransform(Transform):
    transform_id = "T_STR_CONCAT"
    rule_id = "R08_STR_CONCAT"
    application_order = 10

    def apply(self, tree: ast.Module) -> tuple[ast.Module, list[AppliedChange]]:
        changes: list[AppliedChange] = []
        # Collect first; splice afterwards so indices stay valid.
        sites = []
        for loop, body, index in in_loop_statements(tree):
            site = self._match(loop, body, index)
            if site is not None:
                sites.append(site)
        # Apply deepest-last ordering by splicing per body from the end.
        for loop, body, index, name, init_value in sorted(
            sites, key=lambda s: s[2], reverse=True
        ):
            parts_name = f"_{name}_parts"
            self._rewrite_loop_body(loop, name, parts_name)
            seed: list[ast.expr] = (
                [ast.Constant(init_value)] if init_value else []
            )
            body[index - 1] = ast.Assign(
                targets=[ast.Name(id=parts_name, ctx=ast.Store())],
                value=ast.List(elts=seed, ctx=ast.Load()),
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
            body.insert(index + 1, join_call)
            changes.append(
                self._change(
                    loop,
                    f"accumulate {name!r} via {parts_name}.append + ''.join",
                )
            )
        if changes:
            ast.fix_missing_locations(tree)
        return tree, changes

    def _match(self, loop, body, index):
        if not isinstance(loop, (ast.For, ast.While)) or index == 0:
            return None
        init = body[index - 1]
        if not (
            isinstance(init, ast.Assign)
            and len(init.targets) == 1
            and isinstance(init.targets[0], ast.Name)
            and isinstance(init.value, ast.Constant)
            and isinstance(init.value.value, str)
        ):
            return None
        name = init.targets[0].id
        aug_count = 0
        for node in ast.walk(loop):
            if isinstance(node, ast.AugAssign) and (
                isinstance(node.target, ast.Name) and node.target.id == name
            ):
                if not isinstance(node.op, ast.Add):
                    return None
                aug_count += 1
            elif isinstance(node, ast.Name) and node.id == name:
                # Any other appearance (read or write) breaks the precondition
                # unless it is the target Name inside one of the AugAssigns,
                # which ast.walk visits separately — detect via context.
                if isinstance(node.ctx, ast.Load):
                    return None
        if aug_count == 0:
            return None
        return (loop, body, index, name, init.value.value)

    @staticmethod
    def _rewrite_loop_body(loop, name: str, parts_name: str) -> None:
        class _AugToAppend(ast.NodeTransformer):
            def visit_AugAssign(self, node: ast.AugAssign):
                self.generic_visit(node)
                if isinstance(node.target, ast.Name) and node.target.id == name:
                    return ast.Expr(
                        value=ast.Call(
                            func=ast.Attribute(
                                value=ast.Name(id=parts_name, ctx=ast.Load()),
                                attr="append",
                                ctx=ast.Load(),
                            ),
                            args=[node.value],
                            keywords=[],
                        )
                    )
                return node

        _AugToAppend().visit(loop)
