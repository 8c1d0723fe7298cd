"""Loop-invariant ``re.compile`` assignments hoisted out of loops (rule R13).

``name = re.compile(<constants>)`` inside a loop moves to just before
the loop.  Preconditions: the target name is assigned nowhere else in
the loop, every argument is a literal constant (so the value cannot
depend on the iteration), and — via reaching definitions — no read of
the name inside the loop can observe a value from *before* the
assignment: a first-iteration read of an outer binding (or of nothing,
a NameError) would see the hoisted value instead.

The reaching-definitions model is built only for a module where some
loop body holds a syntactic candidate, and then from the pristine tree
before any statement moves.
"""

from __future__ import annotations

import ast

from repro.analyzer.rules.base import target_names
from repro.optimizer.transforms.base import AppliedChange, Transform, in_loop_statements
from repro.semantics import build_semantic_model


class RecompileHoistTransform(Transform):
    transform_id = "T_RECOMPILE_HOIST"
    rule_id = "R13_OBJECT_CHURN"
    application_order = 11

    def apply(self, tree: ast.Module) -> tuple[ast.Module, list[AppliedChange]]:
        changes: list[AppliedChange] = []
        # Process high indices first so inserts never invalidate the
        # collected positions of other loops in the same body.
        sites = sorted(
            in_loop_statements(tree), key=lambda site: site[2], reverse=True
        )
        # Only a syntactic candidate can lead to a hoist (a hoist can
        # expose a new one in an enclosing loop, but only after a first
        # hoist), so files without one never pay for a semantic model.
        if not any(
            self._hoistable(stmt)
            for loop, _body, _index in sites
            for body in self._direct_bodies(loop)
            for stmt in body
        ):
            return tree, changes
        # Flow units must be built from the pristine tree: _extract
        # mutates bodies as it goes, and a CFG first materialized after
        # a pop would describe the half-rewritten function.
        semantics = build_semantic_model(tree)
        semantics.materialize()
        for loop, parent_body, loop_index in sites:
            moved = self._extract(loop, semantics)
            for stmt in reversed(moved):
                parent_body.insert(loop_index, stmt)
                changes.append(
                    self._change(
                        stmt,
                        f"hoisted loop-invariant {ast.unparse(stmt)!r} "
                        "out of the loop",
                    )
                )
        if changes:
            ast.fix_missing_locations(tree)
        return tree, changes

    def _extract(self, loop, semantics) -> list[ast.stmt]:
        moved: list[ast.stmt] = []
        for body in self._direct_bodies(loop):
            index = 0
            while index < len(body):
                stmt = body[index]
                if self._hoistable(stmt):
                    name = stmt.targets[0].id  # type: ignore[union-attr]
                    # The pattern assignment itself counts once; any other
                    # assignment to the name blocks the hoist.
                    others = sum(
                        1
                        for node in ast.walk(loop)
                        if isinstance(node, ast.Assign)
                        and any(name in target_names(t) for t in node.targets)
                    )
                    if others == 1 and self._reads_see_only(
                        loop, stmt, name, semantics
                    ):
                        moved.append(body.pop(index))
                        continue
                index += 1
            if not body:
                body.append(ast.Pass())
        return moved

    @staticmethod
    def _reads_see_only(loop, assign, name, semantics) -> bool:
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
            reaching = semantics.defs_reaching(node)
            if not reaching:
                return False
            if any(d.node is not assign for d in reaching):
                return False
        return True

    @staticmethod
    def _direct_bodies(loop):
        yield loop.body
        if loop.orelse:
            yield loop.orelse

    @staticmethod
    def _hoistable(stmt: ast.stmt) -> bool:
        if not (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Call)
        ):
            return False
        call = stmt.value
        func = call.func
        is_re_compile = (
            isinstance(func, ast.Attribute)
            and func.attr == "compile"
            and isinstance(func.value, ast.Name)
            and func.value.id == "re"
        )
        if not is_re_compile:
            return False
        operands = [*call.args, *(kw.value for kw in call.keywords)]
        return bool(operands) and all(
            isinstance(arg, ast.Constant) for arg in operands
        )
