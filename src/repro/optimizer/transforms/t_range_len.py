"""``range(len())`` indexing → ``enumerate`` (rule R15).

::

    for i in range(len(seq)):
        total += seq[i]

becomes::

    for i, seq_item in enumerate(seq):
        total += seq_item

The index stays bound (enumerate yields it), so code that uses ``i``
for anything else — including after the loop — is untouched by the
rename; only the ``seq[i]`` reads are replaced.

Preconditions (the transform skips otherwise): the loop target is a
plain name; every use of the index inside the loop is a ``seq[i]``
read; every use of ``seq`` inside the loop is one of those reads (so
``seq`` is neither rebound nor mutated through its own name); and
``enumerate`` is not shadowed anywhere in the module.  As with the
loop-swap transform, resizing the sequence through an *alias* during
iteration is outside the stated preconditions.
"""

from __future__ import annotations

import ast
import keyword

from repro.analyzer.rules.r15_range_len import range_len_sequence
from repro.optimizer.transforms.base import AppliedChange, FixContext, Transform


class RangeLenToEnumerate(Transform):
    transform_id = "T_RANGE_LEN_ENUMERATE"
    rule_id = "R15_RANGE_LEN"
    application_order = 40

    def fix(self, node: ast.For, ctx: FixContext) -> AppliedChange | None:
        if not isinstance(node.target, ast.Name):
            return None
        index = node.target.id
        sequence = range_len_sequence(node.iter)
        if sequence is None or sequence == index:
            return None
        reads = _subscript_reads(node, index, sequence)
        if not reads:
            return None
        # Both whole-tree scans run once per pass, before this pass's
        # first rewrite; the names each rewrite adds join ``taken``.
        facts = ctx.memo.get(ctx.tree)
        if facts is None:
            facts = ctx.memo[ctx.tree] = (
                _name_is_bound(ctx.tree, "enumerate"),
                _all_identifiers(ctx.tree),
            )
        enumerate_bound, taken = facts
        if enumerate_bound:
            return None
        item = _fresh_name(f"{sequence}_item", taken)
        taken.add(item)
        items = [(read, ast.Name(id=item, ctx=ast.Load())) for read in reads]
        for read, name in items:
            ctx.replace(read, name)
        ctx.replace(
            node.target,
            ast.Tuple(
                elts=[
                    ast.Name(id=index, ctx=ast.Store()),
                    ast.Name(id=item, ctx=ast.Store()),
                ],
                ctx=ast.Store(),
            ),
        )
        ctx.replace(
            node.iter,
            ast.Call(
                func=ast.Name(id="enumerate", ctx=ast.Load()),
                args=[ast.Name(id=sequence, ctx=ast.Load())],
                keywords=[],
            ),
        )
        return self._change(
            node,
            f"for {index} in range(len({sequence})) → "
            f"for {index}, {item} in enumerate({sequence})",
        )


def _subscript_reads(
    loop: ast.For, index: str, sequence: str
) -> "list[ast.Subscript] | None":
    """Every ``sequence[index]`` read in the loop, or None when unsafe.

    Unsafe means the index or the sequence is used any other way inside
    the loop (written, passed to a call, subscript-assigned, …).
    """
    reads: list[ast.Subscript] = []
    claimed: set[int] = set()
    for node in ast.walk(loop):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id == sequence
            and isinstance(node.slice, ast.Name)
            and node.slice.id == index
            and isinstance(node.slice.ctx, ast.Load)
        ):
            reads.append(node)
            claimed.add(id(node.value))
            claimed.add(id(node.slice))
    for node in ast.walk(loop):
        if not isinstance(node, ast.Name) or node.id not in (index, sequence):
            continue
        if node is loop.target or id(node) in claimed:
            continue
        if _is_range_len_part(loop.iter, node):
            continue
        return None
    return reads


def _is_range_len_part(iter_node: ast.expr, node: ast.Name) -> bool:
    return any(child is node for child in ast.walk(iter_node))


def _name_is_bound(tree: ast.Module, name: str) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == name and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            return True
        if isinstance(node, ast.arg) and node.arg == name:
            return True
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ) and node.name == name:
            return True
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if (alias.asname or alias.name).split(".")[0] == name:
                    return True
    return False


def _all_identifiers(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            names.add(node.name)
    return names


def _fresh_name(base: str, taken: set[str]) -> str:
    name = base
    while name in taken or keyword.iskeyword(name):
        name += "_"
    return name
