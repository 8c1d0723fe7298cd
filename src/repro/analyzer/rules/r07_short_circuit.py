"""R07 — short-circuit operand ordering (paper: "put most common case
first").

Static analysis cannot see runtime frequencies, but it can see *cost*:
a function call on the left of ``and``/``or`` runs every time, while a
cheap name/constant/comparison placed first can skip it.  The rule flags
boolean operations where an obviously expensive operand precedes an
obviously cheap one.  A type or capability guard
(``isinstance(x, T) and x.attr == v``) is not such an operand when a
later operand reads ``x``'s attributes, items or call: the read depends
on the guard and cannot move in front of it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analyzer.findings import Finding, Severity
from repro.analyzer.rules.base import AnalysisContext, Rule


def _is_expensive(node: ast.expr) -> bool:
    """Contains a call (method or function) anywhere inside."""
    return any(isinstance(child, ast.Call) for child in ast.walk(node))


#: Builtins whose truth protects reads of their first argument.
_GUARDS = frozenset({"isinstance", "issubclass", "hasattr", "callable"})


def _guards_later(node: ast.expr, later: list[ast.expr]) -> bool:
    """``node`` is a guard call and a later operand reads an attribute,
    item or call of the guard's first argument."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _GUARDS
        and node.args
    ):
        return False
    subject = ast.dump(node.args[0])
    reads = [
        child.func if isinstance(child, ast.Call) else child.value
        for operand in later
        for child in ast.walk(operand)
        if isinstance(child, (ast.Attribute, ast.Subscript, ast.Call))
    ]
    return any(ast.dump(read) == subject for read in reads)


def _is_cheap(node: ast.expr) -> bool:
    """A bare name, constant, attribute, or call-free comparison."""
    if isinstance(node, (ast.Name, ast.Constant, ast.Attribute)):
        return True
    if isinstance(node, (ast.Compare, ast.UnaryOp)):
        return not _is_expensive(node)
    return False


class ShortCircuitRule(Rule):
    rule_id = "R07_SHORT_CIRCUIT"
    version = 2
    interested_types = (ast.BoolOp,)
    # Firing requires an expensive operand, i.e. a call — and a call
    # cannot be spelled without parentheses.
    triggers = ("(",)
    semantic_facts = ("hotness",)

    def check(self, node: ast.AST, ctx: AnalysisContext) -> Iterator[Finding]:
        if not isinstance(node, ast.BoolOp):
            return
        values = node.values
        if any(
            _is_expensive(operand)
            and any(map(_is_cheap, values[position + 1 :]))
            and not _guards_later(operand, values[position + 1 :])
            for position, operand in enumerate(values[:-1])
        ):
            op = "and" if isinstance(node.op, ast.And) else "or"
            # One finding per BoolOp.
            yield ctx.finding(
                self.rule_id,
                node,
                f"expensive operand before a cheap one in `{op}` chain; "
                "putting the cheap, most-common test first lets the "
                "short circuit skip the call.",
                severity=Severity.ADVICE,
            )
