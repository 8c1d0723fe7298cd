"""R16 — dead stores: computed values that are never read.

A value computed and assigned but never read afterward is pure waste —
the CPU (and battery) paid for the computation and the write, and no
later instruction observes either.  Liveness analysis over the
function's CFG proves the "never read" part; the purity analysis
proves the right-hand side can be deleted without losing an effect.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analyzer.findings import Finding, Severity
from repro.analyzer.rules.base import AnalysisContext, Rule


def _is_trivial(value: ast.expr) -> bool:
    """Bare constants and name aliases cost ~nothing to compute."""
    return isinstance(value, (ast.Constant, ast.Name))


#: Statement fields that hold nested statement lists (``handlers`` and
#: ``cases`` hold handlers/match cases, whose ``body`` is walked next).
_BLOCK_FIELDS = ("body", "orelse", "finalbody", "handlers", "cases")


def _has_candidate(func: ast.AST) -> bool:
    """True when some statement under ``func`` could be reported.

    A candidate is an assignment R16 would keep after liveness: one
    ``Name`` target, not ``_``-prefixed, and a non-trivial value.  The
    walk covers nested defs and classes too, so this is a necessary
    condition only; its point is to skip the CFG and liveness solve
    for the many functions that hold no candidate at all.
    """
    assign, name, is_trivial = ast.Assign, ast.Name, _is_trivial
    block_fields = _BLOCK_FIELDS
    stack: list[ast.AST] = list(func.body)
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, assign):
            targets = stmt.targets
            if (
                len(targets) == 1
                and isinstance(targets[0], name)
                and not targets[0].id.startswith("_")
                and not is_trivial(stmt.value)
            ):
                return True
            continue
        for field in block_fields:
            stack.extend(getattr(stmt, field, ()))
    return False


class DeadStoreRule(Rule):
    rule_id = "R16_DEAD_STORE"
    interested_types = (ast.FunctionDef, ast.AsyncFunctionDef)
    # Dead stores are only reported inside function definitions.
    triggers = ("def",)
    semantic_facts = ("scopes", "cfg", "dataflow", "purity")
    version = 1

    def check(self, node: ast.AST, ctx: AnalysisContext) -> Iterator[Finding]:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if not _has_candidate(node):
            return
        for name, assign in ctx.semantics.dead_stores(node):
            # `_`-prefixed names are the deliberate-discard convention.
            if name.startswith("_"):
                continue
            if not isinstance(assign, ast.Assign) or _is_trivial(assign.value):
                continue
            # Only flag when deleting the statement is provably safe:
            # an impure RHS (logging call, queue pop) is used *for* its
            # effect even when its value is discarded.
            if not ctx.expression_is_pure(assign.value):
                continue
            yield ctx.finding(
                self.rule_id,
                assign,
                f"value assigned to {name!r} is never read on any path; "
                "the computation is wasted energy — delete the statement "
                "or use the result.",
                severity=Severity.MEDIUM,
                pure_context=True,
            )
