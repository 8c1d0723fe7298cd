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

from repro.analyzer.rules.r11_traversal import _two_indices
from repro.optimizer.transforms.base import AppliedChange, FixContext, Transform


class LoopSwapTransform(Transform):
    transform_id = "T_TRAVERSAL_SWAP"
    rule_id = "R11_TRAVERSAL"
    application_order = 90

    def fix(self, node: ast.Subscript, ctx: FixContext) -> AppliedChange | None:
        # The finding anchors the column-major access ``a[inner][outer]``.
        inner_var, outer_var = _two_indices(node)
        inner = next(
            (
                loop
                for loop in ctx.ancestors(node)
                if isinstance(loop, ast.For)
                and isinstance(loop.target, ast.Name)
                and loop.target.id == inner_var
            ),
            None,
        )
        outer = ctx.parent(inner) if inner is not None else None
        if not (
            isinstance(outer, ast.For)
            and self._swappable_inner(outer) is inner
            and outer.target.id == outer_var  # type: ignore[union-attr]
        ):
            return None
        outer.target, inner.target = inner.target, outer.target
        outer.iter, inner.iter = inner.iter, outer.iter
        ctx.touch(outer)
        ctx.touch(inner)
        return self._change(
            outer,
            f"swapped loops: outer now iterates row index "
            f"{inner_var!r}, inner iterates {outer_var!r}",
        )

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
