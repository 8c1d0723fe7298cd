"""Loop-invariant ``re.compile`` assignments hoisted out of loops (rule R13).

``name = re.compile(<constants>)`` directly in a loop body moves to
just before the loop.  Preconditions: the target name is assigned
nowhere else in the loop, every argument is a literal constant (so the
value cannot depend on the iteration), and — via the pass's reaching
definitions — no read of the name inside the loop can observe a value
from *before* the assignment: a first-iteration read of an outer
binding (or of nothing, a NameError) would see the hoisted value
instead.
"""

from __future__ import annotations

import ast

from repro.analyzer.rules.base import target_names
from repro.optimizer.transforms.base import AppliedChange, FixContext, Transform


class RecompileHoistTransform(Transform):
    transform_id = "T_RECOMPILE_HOIST"
    rule_id = "R13_OBJECT_CHURN"
    application_order = 11

    def fix(self, node: ast.Call, ctx: FixContext) -> AppliedChange | None:
        # The detector matched ``re.compile`` (or a class construction)
        # with constant arguments; the hoist needs ``name = re.compile(
        # <constants>)`` as a statement directly in the loop's body.
        stmt = ctx.parent(node)
        loop = ctx.parent(stmt)
        if not (
            isinstance(stmt, ast.Assign)
            and stmt.value is node
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "compile"
            and (node.args or node.keywords)
            and isinstance(loop, (ast.For, ast.While))
        ):
            return None
        name = stmt.targets[0].id  # type: ignore[union-attr]
        # The pattern assignment itself counts once; any other
        # assignment to the name blocks the hoist.
        others = sum(
            1
            for child in ast.walk(loop)
            if isinstance(child, ast.Assign)
            and any(name in target_names(t) for t in child.targets)
        )
        if others != 1 or not self._reads_see_only(loop, stmt, name, ctx):
            return None
        if len(ctx.body_of(stmt)) == 1:
            ctx.replace(stmt, ast.Pass())
        else:
            ctx.remove(stmt)
        ctx.insert(loop, stmt)
        return self._change(
            stmt, f"hoisted loop-invariant {ast.unparse(stmt)!r} out of the loop"
        )

    @staticmethod
    def _reads_see_only(loop, assign, name, ctx: FixContext) -> bool:
        """Every in-loop read of ``name`` reaches exactly this assign.

        A read whose reaching set includes an outer definition — or is
        empty, i.e. a possibly-unbound first-iteration read — would
        observe the hoisted value instead of what the original code
        saw, so the hoist is rejected.
        """
        for node in ast.walk(loop):
            if not (
                isinstance(node, ast.Name)
                and node.id == name
                and isinstance(node.ctx, ast.Load)
            ):
                continue
            reaching = ctx.semantics.defs_reaching(node)
            if not reaching:
                return False
            if any(d.node is not assign for d in reaching):
                return False
        return True
