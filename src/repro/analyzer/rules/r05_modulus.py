"""R05 — the modulus operator (paper: up to +1,620 % vs other arithmetic).

Integer division/remainder is the slowest ALU operation on every
microarchitecture.  For power-of-two divisors the remainder is a single
AND (``x & (n-1)``); for periodic counters (``i % n == 0``) a counting
variable avoids the division entirely.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analyzer.findings import Finding, Severity
from repro.analyzer.rules.base import AnalysisContext, Rule


def is_power_of_two(value: object) -> bool:
    """A positive int (not bool) power of two; shared with the R05
    transform, whose bitmask rewrite needs exactly this."""
    return isinstance(value, int) and not isinstance(value, bool) and value > 0 \
        and (value & (value - 1)) == 0


class ModulusRule(Rule):
    rule_id = "R05_MODULUS"
    interested_types = (ast.BinOp,)
    # ast.Mod cannot be spelled without the operator.
    triggers = ("%",)
    semantic_facts = ("types", "hotness", "cfg", "dataflow")
    version = 3

    def check(self, node: ast.AST, ctx: AnalysisContext) -> Iterator[Finding]:
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)):
            return
        # '%' on a string literal is formatting, not arithmetic — and the
        # flow-sensitive type state extends that to names whose value is
        # str *at this program point* (fmt = 0 … fmt = "%d rows"; fmt % n
        # formats even though the whole-scope join says unknown).
        if isinstance(node.left, ast.Constant) and isinstance(node.left.value, str):
            return
        if ctx.type_at(node.left) == "str":
            return
        if not ctx.in_loop:
            return
        if isinstance(node.right, ast.Constant) and is_power_of_two(
            node.right.value
        ):
            mask = node.right.value - 1
            yield ctx.finding(
                self.rule_id,
                node,
                f"modulus by power-of-two {node.right.value} in a loop; "
                f"use a bitmask (x & {mask}).",
                severity=Severity.HIGH,
            )
        else:
            yield ctx.finding(
                self.rule_id,
                node,
                "modulus in a loop is the most expensive arithmetic operator; "
                "hoist it, use a running counter, or restructure.",
                severity=Severity.MEDIUM,
            )
