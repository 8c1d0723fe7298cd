"""Inline finding suppression: ``# pepo: ignore[...]`` comments.

A developer who has reviewed a finding silences it at the source line::

    total += x % k        # pepo: ignore[R05_MODULUS]
    risky_line()          # pepo: ignore          (all rules)

Suppressions are parsed per line.  When the AST is available, a
comment anywhere inside a multi-line statement covers the statement's
whole ``lineno..end_lineno`` span — findings anchor to the line where
the flagged expression *starts*, which for a wrapped call or implicit
string concatenation is often not the line carrying the trailing
comment.  Without a tree (callers that only have text) matching falls
back to exact lines.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from repro.analyzer.findings import Finding

_PATTERN = re.compile(
    r"#\s*pepo:\s*ignore(?:\[(?P<rules>[A-Z0-9_,\s]+)\])?", re.IGNORECASE
)


def parse_suppressions(source: str) -> dict[int, frozenset[str] | None]:
    """Map line number → suppressed rule ids (None = every rule)."""
    suppressions: dict[int, frozenset[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), 1):
        match = _PATTERN.search(line)
        if not match:
            continue
        rules = match.group("rules")
        if rules is None:
            suppressions[lineno] = None
        else:
            names = frozenset(
                token.strip().upper()
                for token in rules.split(",")
                if token.strip()
            )
            suppressions[lineno] = names or None
    return suppressions


def _statement_spans(tree: ast.AST) -> list[tuple[int, int]]:
    """``(lineno, end_lineno)`` for every statement, innermost last.

    Sorted by ascending span size so the *smallest* statement containing
    a comment line wins — a comment inside one call of a long function
    body suppresses that statement, not the whole ``def``.
    """
    spans = [
        (node.lineno, node.end_lineno or node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt)
    ]
    spans.sort(key=lambda span: (span[1] - span[0], span[0]))
    return spans


def expand_suppressions(
    suppressions: dict[int, frozenset[str] | None], tree: ast.AST
) -> dict[int, frozenset[str] | None]:
    """Grow line-anchored suppressions over multi-line statements.

    Each suppression comment is mapped to the innermost statement whose
    span contains its line; every line of that span inherits the
    suppression.  Lines already carrying their own comment keep it
    (an inner named ignore is not widened away by an outer blanket one).
    """
    if not suppressions:
        return suppressions
    spans = _statement_spans(tree)
    expanded: dict[int, frozenset[str] | None] = {}
    for lineno, rules in suppressions.items():
        # The innermost statement containing the comment line decides:
        # a comment on a single-line statement stays on that line (it
        # must not leak to siblings via the enclosing loop/def span).
        for start, end in spans:
            if start <= lineno <= end:
                if end > start:
                    for covered in range(start, end + 1):
                        if (
                            covered not in suppressions
                            and covered not in expanded
                        ):
                            expanded[covered] = rules
                break
    expanded.update(suppressions)
    return expanded


def suppression_map(
    source: str, tree: ast.AST | None = None
) -> dict[int, frozenset[str] | None]:
    """The source's suppressions, grown over ``tree``'s statements."""
    suppressions = parse_suppressions(source)
    if tree is not None:
        suppressions = expand_suppressions(suppressions, tree)
    return suppressions


def apply_suppressions(
    findings: Iterable[Finding],
    source: str,
    tree: ast.AST | None = None,
) -> tuple[list[Finding], list[Finding]]:
    """Split findings into (kept, suppressed) per the source's comments."""
    return split_suppressed(findings, suppression_map(source, tree))


def split_suppressed(
    findings: Iterable[Finding],
    suppressions: dict[int, frozenset[str] | None],
) -> tuple[list[Finding], list[Finding]]:
    """Split findings into (kept, suppressed) per a suppression map."""
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    for finding in findings:
        rules = suppressions.get(finding.line, "missing")
        if rules == "missing":
            kept.append(finding)
        elif rules is None or finding.rule_id in rules:
            suppressed.append(finding)
        else:
            kept.append(finding)
    return kept, suppressed
