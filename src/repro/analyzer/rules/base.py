"""Shared infrastructure for analyzer rules.

Every rule sees every AST node together with an :class:`AnalysisContext`
describing where that node sits: enclosing function, loop nesting,
the module's semantic model, and which locals look string-typed.
Rules yield :class:`~repro.analyzer.findings.Finding` objects; the
engine owns the traversal so each rule stays a small, testable pattern
matcher.
"""

from __future__ import annotations

import abc
import ast
from typing import TYPE_CHECKING, Iterator

from repro.analyzer.findings import Finding, Severity, compute_confidence

if TYPE_CHECKING:
    from repro.semantics import Binding, SemanticModel

#: The fact families a rule may declare in ``semantic_facts``.
SEMANTIC_FACTS = frozenset(
    {"scopes", "types", "hotness", "cfg", "dataflow", "purity", "callgraph"}
)


class FunctionInfo:
    """Scope facts for one function, computed on first query.

    The engine creates one of these at every function entry, but most
    functions never get an ``is_stringish`` question from any rule —
    so the two string-propagation passes run lazily, on the first
    access to :attr:`string_locals`.  They depend only on the
    function's own subtree (never on traversal position), so deferring
    them cannot change any answer.
    """

    __slots__ = ("node", "_ctx", "_string_locals")

    def __init__(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        ctx: "AnalysisContext",
    ) -> None:
        self.node = node
        self._ctx = ctx
        self._string_locals: set[str] | None = None

    @property
    def string_locals(self) -> set[str]:
        if self._string_locals is None:
            # Assign the (initially empty) set before the passes run:
            # ``is_stringish`` re-reads it mid-pass through
            # ``current_function``, exactly like the old in-place
            # mutation did.
            self._string_locals = set()
            _collect_string_locals(self.node, self, self._ctx)
        return self._string_locals


class AnalysisContext:
    """Traversal state handed to every rule check.

    Besides the traversal stacks, the context carries the per-module
    :class:`~repro.semantics.SemanticModel` — scope/binding
    resolution, lightweight type inference, and loop-nesting hotness —
    computed once per file and shared by every rule.

    ``anchors`` is set only for the optimizer's analyses: every finding
    built through :meth:`finding` is then recorded under its ``id``
    with the node it anchors to, the node that rule's transform gets.
    """

    def __init__(
        self,
        filename: str,
        source: str,
        tree: ast.Module,
        semantics: "SemanticModel | None" = None,
        anchors: "dict[int, ast.AST] | None" = None,
    ) -> None:
        from repro.semantics import build_semantic_model

        self.filename = filename
        self.source_lines = source.splitlines()
        self.tree = tree
        self.loop_stack: list[ast.For | ast.While] = []
        self.function_stack: list[FunctionInfo] = []
        self.semantics = semantics or build_semantic_model(
            tree, filename=filename
        )
        self.anchors = anchors

    # -- scope queries ---------------------------------------------------

    @property
    def in_loop(self) -> bool:
        return bool(self.loop_stack)

    @property
    def loop_depth(self) -> int:
        return len(self.loop_stack)

    @property
    def current_function(self) -> FunctionInfo | None:
        return self.function_stack[-1] if self.function_stack else None

    def is_stringish(self, node: ast.expr) -> bool:
        """Heuristic: does this expression evaluate to a str?"""
        if isinstance(node, ast.Constant):
            return isinstance(node.value, str)
        if isinstance(node, ast.JoinedStr):
            return True
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Mod)):
            return self.is_stringish(node.left) or self.is_stringish(node.right)
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id in ("str", "repr", "format", "chr"):
                return True
            if isinstance(fn, ast.Attribute) and fn.attr in (
                "join", "format", "upper", "lower", "strip", "lstrip", "rstrip",
                "replace", "title", "capitalize", "decode",
            ):
                return True
            return False
        if isinstance(node, ast.Name):
            fn = self.current_function
            if fn is not None and node.id in fn.string_locals:
                return True
        # Fall back to the semantic type table: annotations and
        # cross-statement propagation the syntactic walk cannot see.
        return self.semantics.type_of(node) == "str"

    # -- semantic fact queries ---------------------------------------------

    def resolve(self, node: ast.Name) -> "Binding":
        """Scope/binding resolution for a name at its use site."""
        return self.semantics.resolve(node)

    def type_of(self, node: ast.expr) -> str:
        """Inferred static type (``str | int | … | unknown``)."""
        return self.semantics.type_of(node)

    def excludes_type(self, node: ast.expr, *candidates: str) -> bool:
        """Inferred type is known and contradicts every candidate."""
        return self.semantics.excludes_type(node, *candidates)

    # -- flow-sensitive fact queries ---------------------------------------

    def type_at(self, node: ast.expr) -> str:
        """Type under the flow state reaching the node's program point."""
        return self.semantics.type_at(node)

    def excludes_type_at(self, node: ast.expr, *candidates: str) -> bool:
        """Flow-sensitive type is known and contradicts every candidate."""
        return self.semantics.excludes_type_at(node, *candidates)

    def defs_reaching(self, node: ast.Name):
        """Definitions that may supply this name's value at its use."""
        return self.semantics.defs_reaching(node)

    def is_pure(self, func: ast.AST) -> bool:
        """Conservative: calling ``func`` has no observable effects."""
        return self.semantics.is_pure(func)

    def expression_is_pure(self, expr: ast.expr) -> bool:
        """Conservative: evaluating ``expr`` has no observable effects."""
        return self.semantics.purity.expression_is_pure(expr)

    def call_hotness(self, func: ast.AST) -> int:
        """Max loop depth ``func`` is transitively called from."""
        return self.semantics.call_hotness(func)

    # -- finding construction ---------------------------------------------

    def finding(
        self,
        rule_id: str,
        node: ast.AST,
        message: str,
        severity: Severity = Severity.MEDIUM,
        pure_context: bool = False,
    ) -> Finding:
        """Build a finding anchored to ``node`` with its rule's spec metadata.

        Confidence folds the severity together with the node's
        *effective* hotness — static loop-nesting depth plus the
        interprocedural hotness of the enclosing function — and the
        rule's paper overhead, so the same pattern inside a helper
        called from a hot loop outranks its module-level twin.
        """
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        snippet = ""
        if 1 <= line <= len(self.source_lines):
            snippet = self.source_lines[line - 1].strip()
        from repro.rules import REGISTRY

        spec = REGISTRY.get(rule_id)
        overhead = spec.overhead_percent
        hot_depth = self.semantics.hot_depth(node)
        caller_hotness = 0
        func = self.semantics.enclosing_function(node)
        if func is not None:
            caller_hotness = self.semantics.call_hotness(func)
        finding = Finding(
            file=self.filename,
            line=line,
            col=col,
            rule_id=rule_id,
            component=spec.python_component,
            message=message,
            suggestion=spec.python_suggestion,
            severity=severity,
            overhead_percent=overhead,
            snippet=snippet,
            confidence=compute_confidence(
                severity, hot_depth + caller_hotness, overhead
            ),
            hot_depth=hot_depth,
            caller_hotness=caller_hotness,
            pure_context=pure_context,
        )
        if self.anchors is not None:
            self.anchors[id(finding)] = node
        return finding


class Rule(abc.ABC):
    """One pattern matcher; stateless across files."""

    rule_id: str

    #: AST node types this rule can possibly fire on.  The engine builds
    #: a dispatch index from these, so a rule that only matches
    #: ``ast.BinOp`` is never called for the other ~90 node types.
    #: ``None`` (the default) means "call me for every node" — correct
    #: but slow, kept as the fallback for third-party rules that do not
    #: declare their interests.
    interested_types: tuple[type[ast.AST], ...] | None = None

    #: Cheap textual pre-filter: the rule can only fire on sources
    #: containing at least ONE of these literal substrings (OR
    #: semantics).  The engine scans each file once before building any
    #: semantic model; a rule whose triggers all miss is dropped for
    #: that file, and a file activating no rules skips everything past
    #: ``ast.parse``.  Triggers must be *necessary* conditions — every
    #: source the rule can fire on must contain one (e.g. a rule
    #: matching ``ast.Mod`` declares ``("%",)``: the operator cannot be
    #: spelled without it).  When in doubt, widen or use ``None``
    #: (the default: never pre-filtered), which is always sound.
    triggers: tuple[str, ...] | None = None

    #: Which semantic-model fact families this rule consumes — e.g.
    #: ``"scopes"`` (binding resolution), ``"types"`` (inference),
    #: ``"hotness"`` (loop depth) or ``"dataflow"``.  Purely
    #: declarative: the engine does not read it, because each fact is
    #: built lazily on the first query that needs it (see
    #: :class:`~repro.semantics.model.SemanticModel`).  It documents
    #: each rule's evidence base and lets tooling (``pepo rules``) audit
    #: which rules are still syntax-only.  Must be a subset of
    #: :data:`SEMANTIC_FACTS`.
    semantic_facts: tuple[str, ...] = ()

    #: Bump when the rule's detection logic changes.  The registry
    #: fingerprint folds this in, so cached sweep results produced by
    #: an older implementation are invalidated exactly when the rule
    #: itself changes.
    version: int = 1

    @abc.abstractmethod
    def check(self, node: ast.AST, ctx: AnalysisContext) -> Iterator[Finding]:
        """Yield findings for ``node`` (called for every interested node)."""


# -- scope precomputation ----------------------------------------------


def collect_module_names(tree: ast.Module) -> set[str]:
    """Names bound at module level: imports, assignments, defs, classes."""
    names: set[str] = set()
    for node in tree.body:
        names.update(_bound_names(node))
    return names


def _bound_names(node: ast.stmt) -> set[str]:
    names: set[str] = set()
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names.add(node.name)
    elif isinstance(node, ast.Import):
        for alias in node.names:
            names.add((alias.asname or alias.name).split(".")[0])
    elif isinstance(node, ast.ImportFrom):
        for alias in node.names:
            if alias.name != "*":
                names.add(alias.asname or alias.name)
    elif isinstance(node, ast.Assign):
        for target in node.targets:
            names.update(target_names(target))
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        names.update(target_names(node.target))
    elif isinstance(node, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                names.update(_bound_names(child))
        if isinstance(node, ast.For):
            names.update(target_names(node.target))
    return names


def target_names(target: ast.expr) -> set[str]:
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        names: set[str] = set()
        for element in target.elts:
            names.update(target_names(element))
        return names
    if isinstance(target, ast.Starred):
        return target_names(target.value)
    return set()


def collect_function_info(
    node: ast.FunctionDef | ast.AsyncFunctionDef, ctx: AnalysisContext
) -> FunctionInfo:
    """Scope facts handle for a function (locals computed lazily)."""
    return FunctionInfo(node, ctx)


def _collect_string_locals(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    info: FunctionInfo,
    ctx: AnalysisContext,
) -> None:
    """Fill ``info.string_locals``: single-target assignments from
    string-ish RHS.  Two passes so ``a = 'x'; b = a`` marks ``b``."""
    string_locals = info.string_locals
    for _ in range(2):
        for child in ast.walk(node):
            if (
                isinstance(child, ast.Assign)
                and len(child.targets) == 1
                and isinstance(child.targets[0], ast.Name)
            ):
                name = child.targets[0].id
                value = child.value
                if isinstance(value, ast.Name):
                    if value.id in string_locals:
                        string_locals.add(name)
                else:
                    # Temporarily view through ctx with this info active.
                    ctx.function_stack.append(info)
                    try:
                        if ctx.is_stringish(value):
                            string_locals.add(name)
                    finally:
                        ctx.function_stack.pop()
