"""The per-module :class:`SemanticModel` handed to every rule."""

from __future__ import annotations

import ast

from repro.semantics._astutil import child_nodes
from repro.semantics.cfg import CFG, build_cfg
from repro.semantics.dataflow import (
    Definition,
    EventEffects,
    Liveness,
    ReachingDefinitions,
    TypeFlow,
)
from repro.semantics.hotness import compute_hotness
from repro.semantics.purity import PurityCallGraph
from repro.semantics.scopes import (
    Binding,
    BindingKind,
    Scope,
    ScopeKind,
    ScopeTable,
    build_scope_table,
)
from repro.semantics.types import TYPE_UNKNOWN, TypeTable

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
#: Nodes that open a new execution context for capture purposes.
_CAPTURE_UNITS = frozenset(
    (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
)


class _FlowUnit:
    """CFG + dataflow bundle for one code unit, built lazily."""

    def __init__(
        self,
        unit_node: ast.AST,
        unit_scope: Scope,
        scopes: ScopeTable,
        types: TypeTable,
    ) -> None:
        self.node = unit_node
        self.scope = unit_scope
        body = (
            unit_node.body
            if isinstance(unit_node, (*_FUNCTION_NODES, ast.Module))
            else []
        )
        params: list[ast.arg] = []
        if isinstance(unit_node, _FUNCTION_NODES):
            args = unit_node.args
            params = [
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                *([args.vararg] if args.vararg else []),
                *([args.kwarg] if args.kwarg else []),
            ]
        self.cfg: CFG = build_cfg(unit_node, body)
        # One binding/use extraction memo shared by all three analyses:
        # each event's subtree is walked once per unit, not once per
        # analysis (and not once per fixpoint iteration).
        effects = EventEffects(unit_scope, scopes)
        self.reaching = ReachingDefinitions(
            self.cfg, unit_scope, scopes, params, effects
        )
        self.typeflow = TypeFlow(
            self.cfg, unit_scope, scopes, types, params, effects
        )
        self._scopes = scopes
        self._effects = effects
        self._liveness: Liveness | None = None

    def liveness(self, always_live: frozenset[str]) -> Liveness:
        if self._liveness is None:
            self._liveness = Liveness(
                self.cfg, self.scope, self._scopes, always_live,
                self._effects,
            )
        return self._liveness


class SemanticModel:
    """Scope, type, hotness, flow, and purity facts for one module.

    Built once per file by the analyzer engine (and by the optimizer's
    safety checks); rules consume it through
    :class:`~repro.analyzer.rules.base.AnalysisContext`.  The model is
    keyed on node identity, so it is only valid for the exact tree it
    was built from — it is never pickled or cached; per-worker sweep
    processes rebuild it per file, and only the resulting findings
    cross the process boundary.

    Every layer is lazy: the scope table builds on the first
    ``resolve``/``scope_of`` query, the type table on the first
    ``type_of``, hotness on the first ``loop_depth``; a per-function
    CFG + dataflow unit materializes on the first
    ``type_at``/``defs_reaching`` query against that function, and the
    purity/call-graph pass on the first ``is_pure``/``call_hotness``
    query — so files whose rules are all pre-filtered away (or whose
    findings never need flow facts) pay only ``ast.parse``.  Pass
    ``eager=True`` to force the scope/type/hotness tables up front (the
    ``cold-project`` benchmark's oracle and probe run this way).
    """

    def __init__(
        self,
        tree: ast.Module,
        filename: str = "<string>",
        *,
        eager: bool = False,
    ) -> None:
        self.tree = tree
        self.filename = filename
        self._scopes: ScopeTable | None = None
        self._types: TypeTable | None = None
        self._depths: dict[int, int] | None = None
        self._units: dict[int, _FlowUnit] = {}
        self._purity: PurityCallGraph | None = None
        self._bindings: dict[int, Binding] = {}
        self._captured: dict[int, frozenset[str]] | None = None
        if eager:
            self._scopes = build_scope_table(tree)
            self._types = TypeTable(self._scopes)
            self._depths = compute_hotness(tree)

    # -- lazy layers ------------------------------------------------------

    @property
    def scopes(self) -> ScopeTable:
        if self._scopes is None:
            self._scopes = build_scope_table(self.tree)
        return self._scopes

    @property
    def types(self) -> TypeTable:
        if self._types is None:
            self._types = TypeTable(self.scopes)
        return self._types

    @property
    def _hotness(self) -> dict[int, int]:
        if self._depths is None:
            self._depths = compute_hotness(self.tree)
        return self._depths

    # -- scope facts ------------------------------------------------------

    def resolve(self, node: ast.Name) -> Binding:
        """Binding classification for a ``Name`` node at its use site.

        Memoized per node: rules routinely re-ask about the same load
        (R04 asks once to fire, once for the suggestion text).
        """
        key = id(node)
        found = self._bindings.get(key)
        if found is None:
            found = self._bindings[key] = self.scopes.resolve(node)
        return found

    def binding_kind(self, node: ast.Name) -> BindingKind:
        return self.resolve(node).kind

    def scope_of(self, node: ast.AST) -> Scope:
        return self.scopes.scope_of(node)

    def reads_module_binding(self, node: ast.Name) -> bool:
        """True when the name load hits the module's global namespace
        (a ``LOAD_GLOBAL`` dict lookup, the R04 cost model)."""
        return self.resolve(node).is_module_level

    # -- type facts -------------------------------------------------------

    def type_of(self, node: ast.expr) -> str:
        """``str | int | float | list | … | unknown`` for an expression
        (whole-scope inference; see :meth:`type_at` for the
        flow-sensitive answer)."""
        return self.types.type_of(node)

    def type_at(self, node: ast.expr) -> str:
        """Flow-sensitive type of an expression at its program point.

        Evaluates under the type state reaching the expression's event
        in its unit's CFG — ``fmt = 0`` rebound to ``"%d"`` on the
        taken branch answers ``str`` at the use even though the
        whole-scope table says ``unknown``.  Falls back to
        :meth:`type_of` for nodes outside any analyzed unit (class
        bodies, lambda internals).
        """
        unit = self._unit_for(node)
        if unit is not None:
            flow_type = unit.typeflow.type_at(node)
            if flow_type is not None:
                return flow_type
        return self.types.type_of(node)

    def excludes_type(self, node: ast.expr, *candidates: str) -> bool:
        """True when the inferred type is known and NOT any candidate.

        The negative form rules actually need: "decline to fire when
        the operand certainly isn't a str/list/…"; ``unknown`` keeps
        the syntactic behavior.
        """
        inferred = self.type_of(node)
        return inferred != TYPE_UNKNOWN and inferred not in candidates

    def excludes_type_at(self, node: ast.expr, *candidates: str) -> bool:
        """Flow-sensitive :meth:`excludes_type` (uses :meth:`type_at`)."""
        inferred = self.type_at(node)
        return inferred != TYPE_UNKNOWN and inferred not in candidates

    # -- dataflow facts ----------------------------------------------------

    def defs_reaching(self, node: ast.Name) -> frozenset[Definition]:
        """Definitions that may supply ``node``'s value at its use site.

        Empty when the name has no definition in its unit (e.g. a
        plain global read inside a function) or the node lies outside
        any analyzed unit.
        """
        unit = self._unit_for(node)
        if unit is None:
            return frozenset()
        reaching = unit.reaching.reaching(node)
        return reaching if reaching is not None else frozenset()

    def dead_stores(self, func: ast.AST) -> list[tuple[str, ast.AST]]:
        """(name, assign node) pairs whose stored value is never read.

        Only single-``Name``-target assignments count; names captured
        by nested scopes or declared ``global``/``nonlocal`` are
        excluded (their stores are observable elsewhere).
        """
        if not isinstance(func, _FUNCTION_NODES):
            return []
        unit = self._unit_of(func)
        if unit is None:
            return []
        always_live = self._captured_names(func, unit.scope)
        liveness = unit.liveness(always_live)
        out: list[tuple[str, ast.AST]] = []
        for block in unit.cfg.blocks:
            for event_index, event in enumerate(block.events):
                node = event.node
                if not (
                    event.kind == "stmt"
                    and isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                ):
                    continue
                name = node.targets[0].id
                if name in always_live:
                    continue
                if name not in liveness.live_after(
                    block.index, event_index
                ):
                    out.append((name, node))
        out.sort(key=lambda item: getattr(item[1], "lineno", 0))
        return out

    def cfg_for(self, node: ast.AST) -> CFG | None:
        """The CFG of a function (or of the module body for ``Module``)."""
        unit = self._unit_of(node)
        return unit.cfg if unit is not None else None

    def flow_unit(self, node: ast.AST) -> _FlowUnit | None:
        """The full dataflow bundle for a unit node (metrics/facts)."""
        return self._unit_of(node)

    # -- purity / call-graph facts ----------------------------------------

    @property
    def purity(self) -> PurityCallGraph:
        if self._purity is None:
            self._purity = PurityCallGraph(
                self.tree, self.scopes, self._hotness, self.types
            )
        return self._purity

    def is_pure(self, func: ast.AST) -> bool:
        """Conservative: True only when calling ``func`` provably has
        no effects visible outside the call."""
        return self.purity.is_pure(func)

    def call_hotness(self, func: ast.AST) -> int:
        """Interprocedural hotness: the max loop depth this function
        is (transitively) called from, 0 when never called or unknown."""
        return self.purity.call_hotness(func)

    # -- hotness facts ----------------------------------------------------

    def loop_depth(self, node: ast.AST) -> int:
        """Static loop-nesting depth at a node (0 = never in a loop)."""
        return self._hotness.get(id(node), 0)

    def hot_depth(self, node: ast.AST) -> int:
        """Loop depth *including* the node itself when it is a loop —
        the right hotness for findings anchored on the loop statement
        (the loop's own body is what repeats)."""
        depth = self.loop_depth(node)
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            depth += 1
        return depth

    def enclosing_function(self, node: ast.AST) -> ast.AST | None:
        """The function def whose body executes ``node``, if any."""
        scope = self._unit_scope(node)
        if scope is not None and isinstance(scope.node, _FUNCTION_NODES):
            return scope.node
        return None

    def effective_hot_depth(self, node: ast.AST) -> int:
        """Static loop depth plus the enclosing function's
        interprocedural hotness — a node one loop deep inside a helper
        called from a hot loop is hotter than its local depth says."""
        depth = self.hot_depth(node)
        func = self.enclosing_function(node)
        if func is not None:
            depth += self.call_hotness(func)
        return depth

    # -- unit management ---------------------------------------------------

    def _unit_scope(self, node: ast.AST) -> Scope | None:
        """Nearest enclosing function/module scope that owns a unit."""
        scope = self.scopes.scope_of(node)
        while scope is not None and scope.kind in (
            ScopeKind.COMPREHENSION, ScopeKind.LAMBDA
        ):
            scope = scope.parent
        if scope is None or scope.kind is ScopeKind.CLASS:
            # Class bodies execute inline but bind a separate namespace;
            # no flow unit is built for them.
            return None
        return scope

    def _unit_for(self, node: ast.AST) -> _FlowUnit | None:
        scope = self._unit_scope(node)
        if scope is None:
            return None
        return self._unit_of(scope.node)

    def _unit_of(self, unit_node: ast.AST) -> _FlowUnit | None:
        if not isinstance(unit_node, (*_FUNCTION_NODES, ast.Module)):
            return None
        key = id(unit_node)
        unit = self._units.get(key)
        if unit is None:
            scope = (
                self.scopes.module_scope
                if isinstance(unit_node, ast.Module)
                else self._function_scope(unit_node)
            )
            if scope is None:
                return None
            unit = _FlowUnit(unit_node, scope, self.scopes, self.types)
            self._units[key] = unit
        return unit

    def _function_scope(self, func: ast.AST) -> Scope | None:
        defining = self.scopes.scope_of(func)
        for child in defining.children:
            if child.node is func:
                return child
        return None

    def _captured_names(
        self, func: ast.AST, unit_scope: Scope
    ) -> frozenset[str]:
        """Names of ``unit_scope`` read or rebound by nested scopes."""
        if self._captured is None:
            self._captured = self._build_capture_index()
        return self._captured.get(id(func), frozenset())

    def _build_capture_index(self) -> dict[int, frozenset[str]]:
        """One pass over the module: id(func) -> names captured there.

        Replaces the old per-function nested ``ast.walk`` (which
        re-visited every doubly-nested function once per enclosing
        function).  A name counts as captured for function ``F`` when
        it appears syntactically inside a function/lambda strictly
        nested in ``F`` — decorators and defaults included, matching
        the old walk — and resolves to ``F``'s scope.  ``nonlocal``
        declarations mark their names captured in every enclosing
        function, conservatively.
        """
        index: dict[int, set[str]] = {}
        # (node, enclosing function/lambda nodes, outermost first)
        stack: list[tuple[ast.AST, tuple[ast.AST, ...]]] = [
            (self.tree, ())
        ]
        while stack:
            node, funcs = stack.pop()
            cls = node.__class__
            if cls is ast.Name:
                # funcs[:-1]: the innermost function is the name's own
                # unit — only *strictly* enclosing functions capture.
                if len(funcs) > 1:
                    scope = self.resolve(node).scope
                    target = scope.node if scope is not None else None
                    for func in funcs[:-1]:
                        if func is target:
                            index.setdefault(id(func), set()).add(node.id)
                continue
            if cls is ast.Nonlocal:
                for func in funcs[:-1]:
                    index.setdefault(id(func), set()).update(node.names)
                continue
            if cls in _CAPTURE_UNITS:
                funcs = funcs + (node,)
            stack.extend((child, funcs) for child in child_nodes(node))
        return {key: frozenset(names) for key, names in index.items()}

    def materialize(self) -> dict:
        """Force every lazy layer; returns summary counts (benching)."""
        units = 0
        queue: list[ast.AST] = [self.tree]
        cursor = 0
        while cursor < len(queue):
            node = queue[cursor]
            cursor += 1
            queue.extend(child_nodes(node))
            if isinstance(node, _FUNCTION_NODES):
                if self._unit_of(node) is not None:
                    units += 1
        self._unit_of(self.tree)
        purity = self.purity
        return {
            "function_units": units,
            "functions": len(purity.functions()),
        }


def build_semantic_model(
    tree: ast.Module, filename: str = "<string>", *, eager: bool = False
) -> SemanticModel:
    """Compute the semantic model for one parsed module.

    ``eager=True`` forces the scope/type/hotness tables immediately
    (the ``cold-project`` benchmark's oracle and probe run this way);
    the default defers every layer to its first query.
    """
    return SemanticModel(tree, filename=filename, eager=eager)
