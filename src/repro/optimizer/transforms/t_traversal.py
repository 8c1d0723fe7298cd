"""Column-major nested loops → row-major (rule R11).

Swaps the headers of a directly nested loop pair when the inner body
accesses ``a[inner][outer]`` (or ``a[inner, outer]``) — the cache-hostile
order on C-ordered data.

Preconditions:

* the outer body is exactly the inner loop (nothing runs between the
  two headers, so reordering cannot skip work);
* neither iterator expression references the other loop's variable
  (the iteration space is a plain rectangle);
* neither loop has an ``else`` clause.

Reordering changes the *order* of iterations, never their set.  For
float accumulations this may change rounding at the last few ulps —
the same trade the paper accepts when refactoring WEKA.
"""

from __future__ import annotations

import ast

from repro.optimizer.transforms.base import AppliedChange, Transform


class LoopSwapTransform(Transform):
    transform_id = "T_TRAVERSAL_SWAP"
    rule_id = "R11_TRAVERSAL"
    application_order = 90

    def apply(self, tree: ast.Module) -> tuple[ast.Module, list[AppliedChange]]:
        changes: list[AppliedChange] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.For):
                continue
            inner = self._swappable_inner(node)
            if inner is None:
                continue
            outer_var = node.target.id  # type: ignore[union-attr]
            inner_var = inner.target.id  # type: ignore[union-attr]
            if not self._column_major(inner, inner_var, outer_var):
                continue
            node.target, inner.target = inner.target, node.target
            node.iter, inner.iter = inner.iter, node.iter
            changes.append(
                self._change(
                    node,
                    f"swapped loops: outer now iterates row index "
                    f"{inner_var!r}, inner iterates {outer_var!r}",
                )
            )
        if changes:
            ast.fix_missing_locations(tree)
        return tree, changes

    @staticmethod
    def _swappable_inner(outer: ast.For) -> ast.For | None:
        if not (
            isinstance(outer.target, ast.Name)
            and not outer.orelse
            and len(outer.body) == 1
            and isinstance(outer.body[0], ast.For)
        ):
            return None
        inner = outer.body[0]
        if not (isinstance(inner.target, ast.Name) and not inner.orelse):
            return None
        outer_var = outer.target.id
        inner_var = inner.target.id
        if outer_var == inner_var:
            return None
        # Rectangularity: iterators independent of each other's variable.
        inner_iter_names = {
            n.id for n in ast.walk(inner.iter) if isinstance(n, ast.Name)
        }
        outer_iter_names = {
            n.id for n in ast.walk(outer.iter) if isinstance(n, ast.Name)
        }
        if outer_var in inner_iter_names or inner_var in outer_iter_names:
            return None
        return inner

    @staticmethod
    def _column_major(inner: ast.For, inner_var: str, outer_var: str) -> bool:
        for node in ast.walk(inner):
            if not isinstance(node, ast.Subscript):
                continue
            if isinstance(node.slice, ast.Tuple) and len(node.slice.elts) == 2:
                first, second = node.slice.elts
            elif isinstance(node.value, ast.Subscript):
                first, second = node.value.slice, node.slice
            else:
                continue
            if (
                isinstance(first, ast.Name)
                and isinstance(second, ast.Name)
                and first.id == inner_var
                and second.id == outer_var
            ):
                return True
        return False
