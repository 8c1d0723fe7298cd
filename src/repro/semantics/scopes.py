"""Scope and binding resolution: symbol tables per lexical scope.

One pass over the module builds a :class:`Scope` tree — module, class,
function, lambda, and comprehension scopes — recording which names each
scope binds and how (assignment, import, ``global``/``nonlocal``
declaration).  :meth:`ScopeTable.resolve` then classifies any
``ast.Name`` per Python's actual lookup rules:

* a name bound anywhere in a function-ish scope is **local** there
  (unless declared ``global``/``nonlocal``);
* free names search enclosing function scopes (**nonlocal**), skipping
  class scopes, per the LEGB rule;
* module-level bindings are **global**, or **import** when the binding
  statement was an import;
* the rest fall to **builtin** or **unresolved**.

Walrus targets bind in the nearest enclosing non-comprehension scope
(PEP 572) and comprehension targets stay private to the comprehension —
the two cases the old hand-rolled ``collect_function_info`` walk got
wrong, and exactly where R04 used to false-positive.
"""

from __future__ import annotations

import ast
import builtins
import enum
from dataclasses import dataclass, field

from repro.semantics._astutil import child_nodes

_BUILTIN_NAMES = frozenset(dir(builtins))

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_COMPREHENSION_NODES = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


class BindingKind(enum.Enum):
    """How a ``Name`` load resolves at its use site."""

    LOCAL = "local"
    NONLOCAL = "nonlocal"
    GLOBAL = "global"
    BUILTIN = "builtin"
    IMPORT = "import"
    UNRESOLVED = "unresolved"


class ScopeKind(enum.Enum):
    MODULE = "module"
    CLASS = "class"
    FUNCTION = "function"
    LAMBDA = "lambda"
    COMPREHENSION = "comprehension"


@dataclass(frozen=True)
class Binding:
    """Resolution result for one name at one use site."""

    name: str
    kind: BindingKind
    #: Scope whose binding the name resolves to (None for builtin /
    #: unresolved names, which live outside the module's scopes).
    scope: "Scope | None" = None

    @property
    def is_module_level(self) -> bool:
        return self.kind in (BindingKind.GLOBAL, BindingKind.IMPORT)


@dataclass
class Scope:
    """One lexical scope: what it binds and where it sits."""

    kind: ScopeKind
    node: ast.AST
    parent: "Scope | None"
    #: name -> bound by an import statement?
    bound: dict[str, bool] = field(default_factory=dict)
    declared_global: set[str] = field(default_factory=set)
    declared_nonlocal: set[str] = field(default_factory=set)
    children: list["Scope"] = field(default_factory=list)

    @property
    def is_function_like(self) -> bool:
        return self.kind in (
            ScopeKind.FUNCTION, ScopeKind.LAMBDA, ScopeKind.COMPREHENSION
        )

    def bind(self, name: str, *, from_import: bool = False) -> None:
        # An import binding never downgrades to a plain one, so the
        # import flag survives `import re; re = recompile()` ordering.
        self.bound[name] = self.bound.get(name, False) or from_import

    def binds(self, name: str) -> bool:
        return name in self.bound

    def walrus_target(self) -> "Scope":
        """Scope a ``:=`` inside this scope binds into (PEP 572)."""
        scope = self
        while scope.kind is ScopeKind.COMPREHENSION and scope.parent is not None:
            scope = scope.parent
        return scope


class ScopeTable:
    """Scope tree plus per-``Name``-node scope ownership."""

    def __init__(self, module_scope: Scope) -> None:
        self.module_scope = module_scope
        #: id(node) -> owning scope, for every AST node visited.
        self._scope_of: dict[int, Scope] = {}
        #: module contains at least one ``:=``; when False, dataflow
        #: can skip walrus extraction walks wholesale.
        self.has_walrus: bool = False

    def record(self, node: ast.AST, scope: Scope) -> None:
        self._scope_of[id(node)] = scope

    def scope_of(self, node: ast.AST) -> Scope:
        """Scope a node's code executes in (module scope fallback)."""
        return self._scope_of.get(id(node), self.module_scope)

    # -- resolution -------------------------------------------------------

    def resolve(self, node: ast.Name) -> Binding:
        """Classify one ``Name`` node per Python's lookup rules."""
        return self.resolve_name(node.id, self.scope_of(node))

    def resolve_name(self, name: str, scope: Scope) -> Binding:
        if scope.is_function_like or scope.kind is ScopeKind.CLASS:
            if name in scope.declared_global:
                return self._module_binding(name)
            if name in scope.declared_nonlocal:
                enclosing = self._enclosing_function_binding(name, scope)
                return Binding(name, BindingKind.NONLOCAL, enclosing)
            if scope.binds(name):
                return Binding(name, BindingKind.LOCAL, scope)
            enclosing = self._enclosing_function_binding(name, scope)
            if enclosing is not None:
                return Binding(name, BindingKind.NONLOCAL, enclosing)
            return self._module_binding(name)
        return self._module_binding(name)

    def _enclosing_function_binding(self, name: str, scope: Scope) -> Scope | None:
        """Nearest enclosing function-ish scope binding ``name``.

        Class scopes are skipped: names in a class body are invisible
        to functions nested inside it (the classic LEGB class gap).
        """
        current = scope.parent
        while current is not None and current.kind is not ScopeKind.MODULE:
            if (
                current.is_function_like
                and current.binds(name)
                and name not in current.declared_global
            ):
                return current
            current = current.parent
        return None

    def _module_binding(self, name: str) -> Binding:
        module = self.module_scope
        if module.binds(name):
            kind = (
                BindingKind.IMPORT
                if module.bound.get(name, False)
                else BindingKind.GLOBAL
            )
            return Binding(name, kind, module)
        if name in _BUILTIN_NAMES:
            return Binding(name, BindingKind.BUILTIN)
        return Binding(name, BindingKind.UNRESOLVED)


# -- construction ----------------------------------------------------------


def build_scope_table(tree: ast.Module) -> ScopeTable:
    """One pass: build the scope tree and node->scope ownership map."""
    module = Scope(kind=ScopeKind.MODULE, node=tree, parent=None)
    table = ScopeTable(module)
    table.record(tree, module)
    for stmt in tree.body:
        _scan(stmt, module, table)
    return table


def _child_scope(kind: ScopeKind, node: ast.AST, parent: Scope) -> Scope:
    scope = Scope(kind=kind, node=node, parent=parent)
    parent.children.append(scope)
    return scope


def _scan(node: ast.AST, scope: Scope, table: ScopeTable) -> None:
    """Record ``node`` in ``scope`` and scan children, opening child
    scopes at function / class / lambda / comprehension boundaries."""
    table.record(node, scope)

    if isinstance(node, _FUNCTION_NODES):
        scope.bind(node.name)
        # Decorators, defaults, and annotations evaluate in the
        # *defining* scope; only the body belongs to the new scope.
        for outer in (
            *node.decorator_list,
            *_argument_defaults(node.args),
            *_argument_annotations(node.args),
            *( [node.returns] if node.returns else [] ),
        ):
            _scan(outer, scope, table)
        inner = _child_scope(ScopeKind.FUNCTION, node, scope)
        _bind_arguments(node.args, inner)
        for stmt in node.body:
            _scan(stmt, inner, table)
        return

    if isinstance(node, ast.Lambda):
        for outer in _argument_defaults(node.args):
            _scan(outer, scope, table)
        inner = _child_scope(ScopeKind.LAMBDA, node, scope)
        _bind_arguments(node.args, inner)
        _scan(node.body, inner, table)
        return

    if isinstance(node, ast.ClassDef):
        scope.bind(node.name)
        for outer in (*node.decorator_list, *node.bases,
                      *(kw.value for kw in node.keywords)):
            _scan(outer, scope, table)
        inner = _child_scope(ScopeKind.CLASS, node, scope)
        for stmt in node.body:
            _scan(stmt, inner, table)
        return

    if isinstance(node, _COMPREHENSION_NODES):
        # The first generator's iterable evaluates in the enclosing
        # scope; everything else lives in the comprehension's own.
        first, *rest = node.generators
        _scan(first.iter, scope, table)
        inner = _child_scope(ScopeKind.COMPREHENSION, node, scope)
        table.record(node, scope)  # the expression itself sits outside
        _scan(first.target, inner, table)
        for condition in first.ifs:
            _scan(condition, inner, table)
        for generator in rest:
            _scan(generator.target, inner, table)
            _scan(generator.iter, inner, table)
            for condition in generator.ifs:
                _scan(condition, inner, table)
        if isinstance(node, ast.DictComp):
            _scan(node.key, inner, table)
            _scan(node.value, inner, table)
        else:
            _scan(node.elt, inner, table)
        return

    if isinstance(node, ast.NamedExpr):
        # PEP 572: the walrus target binds in the nearest enclosing
        # non-comprehension scope.
        table.has_walrus = True
        _scan(node.value, scope, table)
        target_scope = scope.walrus_target()
        if isinstance(node.target, ast.Name):
            target_scope.bind(node.target.id)
            table.record(node.target, target_scope)
        return

    if isinstance(node, ast.Global):
        scope.declared_global.update(node.names)
        return
    if isinstance(node, ast.Nonlocal):
        scope.declared_nonlocal.update(node.names)
        return

    if isinstance(node, (ast.Import, ast.ImportFrom)):
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            scope.bind(bound, from_import=True)
        return

    if isinstance(node, ast.ExceptHandler):
        if node.name:
            scope.bind(node.name)
        for child in child_nodes(node):
            _scan(child, scope, table)
        return

    if isinstance(node, ast.Name):
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            scope.bind(node.id)
        return

    # Structural pattern matching binds capture names in the enclosing
    # scope (match statements are ordinary statements).
    if isinstance(node, (ast.MatchAs, ast.MatchStar)):
        if node.name:
            scope.bind(node.name)
        for child in child_nodes(node):
            _scan(child, scope, table)
        return
    if isinstance(node, ast.MatchMapping):
        if node.rest:
            scope.bind(node.rest)
        for child in child_nodes(node):
            _scan(child, scope, table)
        return

    for child in child_nodes(node):
        _scan(child, scope, table)


def _bind_arguments(args: ast.arguments, scope: Scope) -> None:
    for arg in (
        *args.posonlyargs, *args.args, *args.kwonlyargs,
        *( [args.vararg] if args.vararg else [] ),
        *( [args.kwarg] if args.kwarg else [] ),
    ):
        scope.bind(arg.arg)


def _argument_defaults(args: ast.arguments) -> list[ast.expr]:
    return [*args.defaults, *(d for d in args.kw_defaults if d is not None)]


def _argument_annotations(args: ast.arguments) -> list[ast.expr]:
    out = []
    for arg in (
        *args.posonlyargs, *args.args, *args.kwonlyargs,
        *( [args.vararg] if args.vararg else [] ),
        *( [args.kwarg] if args.kwarg else [] ),
    ):
        if arg.annotation is not None:
            out.append(arg.annotation)
    return out
