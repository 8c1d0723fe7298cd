"""Conservative purity inference and the intra-module call graph.

A function is **pure** when calling it cannot write state visible
outside the call: no ``global``/``nonlocal`` writes, no stores through
attributes or subscripts of externally-reachable objects, no calls to
unknown or impure callees, no ``yield``/``await``/``import``.  The
analysis is a lattice with two points per function (pure / impure),
solved optimistically over the intra-module call graph: every function
starts pure, local evidence and impure callees knock it down, and the
fixpoint handles recursion and mutual recursion (two functions that
only call each other stay pure).

Deliberate conservatisms (and one deliberate allowance):

* any call whose callee cannot be resolved to a whitelisted builtin, a
  ``math.*`` function, a known-type method, or another function in
  this module is impure;
* stores through an attribute or subscript are impure **unless** the
  base is a local name that is only ever bound to fresh allocations
  (displays, comprehensions, ``list()``/``dict()``/… constructor
  calls) — the accumulator pattern ``out = {}; out[k] = v`` stays
  pure because ``out`` cannot alias caller state;
* ``raise`` is allowed: deterministic raising does not invalidate
  memoization or hoisting, which is what purity gates here.

The same pass records each function's **global write effect set**
(propagated transitively) — the optimizer's global-hoist gate — and
solves **interprocedural hotness**: a callee's hotness is the maximum
over call sites of the caller's hotness plus the site's static loop
depth, fixpointed with a cap so recursive cycles terminate.  A cold
helper called from a doubly-nested hot loop becomes hot.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.semantics._astutil import child_nodes
from repro.semantics.scopes import BindingKind, Scope, ScopeKind, ScopeTable

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Builtins that neither mutate arguments nor touch external state.
#: (Function-accepting builtins like sorted(key=…) assume, as Python
#: convention does, that key/default callables are themselves pure.)
PURE_BUILTINS = frozenset({
    "abs", "all", "any", "ascii", "bin", "bool", "bytes", "callable",
    "chr", "dict", "divmod", "enumerate", "float", "format", "frozenset",
    "getattr", "hasattr", "hash", "hex", "int", "isinstance", "issubclass",
    "len", "list", "max", "min", "oct", "ord", "pow", "range", "repr",
    "reversed", "round", "set", "sorted", "str", "sum", "tuple", "type",
    "zip",
})

#: Imported modules whose attribute calls are pure (deterministic,
#: effect-free math).
PURE_MODULES = frozenset({"math"})

#: Non-mutating methods, keyed by the receiver types they are pure on.
PURE_METHODS = {
    "str": frozenset({
        "capitalize", "casefold", "center", "count", "encode", "endswith",
        "find", "format", "index", "isalnum", "isalpha", "isdigit",
        "islower", "isupper", "join", "lower", "lstrip", "partition",
        "replace", "rfind", "rindex", "rsplit", "rstrip", "split",
        "splitlines", "startswith", "strip", "title", "upper", "zfill",
    }),
    "bytes": frozenset({"decode", "find", "count", "startswith", "endswith"}),
    "dict": frozenset({"get", "keys", "values", "items", "copy"}),
    "list": frozenset({"count", "index", "copy"}),
    "tuple": frozenset({"count", "index"}),
    "set": frozenset({"copy", "issubset", "issuperset", "union",
                      "intersection", "difference"}),
}

#: RHS shapes that allocate a fresh object the caller cannot alias.
_FRESH_NODES = (
    ast.List, ast.Dict, ast.Set, ast.Tuple,
    ast.ListComp, ast.DictComp, ast.SetComp, ast.GeneratorExp,
)
_FRESH_CONSTRUCTORS = frozenset({"list", "dict", "set", "tuple", "frozenset"})

# Set forms of the isinstance tuples, plus the classes the local scan
# reacts to at all: the scan visits every node in a function body, and
# one frozenset probe per node beats a 12-branch isinstance chain.
_FUNCTION_SET = frozenset(_FUNCTION_NODES)
_FRESH_SET = frozenset(_FRESH_NODES)
_SCAN_DISPATCH = frozenset((
    ast.Assign, ast.For, ast.AsyncFor, ast.Yield, ast.YieldFrom,
    ast.Await, ast.Import, ast.ImportFrom, ast.Name, ast.Attribute,
    ast.Subscript, ast.Call,
))

#: Interprocedural hotness saturates here (recursion terminates).
HOTNESS_CAP = 9


@dataclass
class FunctionEffects:
    """Purity verdict and effect summary for one function."""

    node: ast.AST
    name: str
    qualname: str
    pure: bool = True
    #: module-global names this function (transitively) writes.
    global_writes: frozenset[str] = frozenset()
    #: human-readable impurity evidence ("writes global 'X'", …).
    reasons: tuple[str, ...] = ()
    #: intra-module callees that resolved (def-node ids).
    callees: tuple[int, ...] = ()
    #: at least one call could not be resolved / whitelisted.
    has_unknown_calls: bool = False


def _callable_label(func: ast.expr) -> str:
    """Dotted-path label for a callee expression.

    Matches ``ast.unparse`` for the overwhelmingly common bare-name and
    attribute-chain callees without paying unparse's visitor dispatch;
    anything fancier falls back to the real unparser.
    """
    parts: list[str] = []
    node: ast.expr = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ast.unparse(func)


class PurityCallGraph:
    """Purity + effects + interprocedural hotness for one module."""

    def __init__(
        self,
        tree: ast.Module,
        scopes: ScopeTable,
        hotness: dict[int, int],
        types=None,
    ) -> None:
        self._scopes = scopes
        self._hotness = hotness
        self._types = types
        #: id(def node) -> FunctionEffects
        self._effects: dict[int, FunctionEffects] = {}
        #: (id(defining scope), name) -> def node, for callee resolution.
        self._defs_by_scope: dict[tuple[int, str], ast.AST] = {}
        #: id(Name node) -> resolved def, memoized: rules re-resolve the
        #: same call sites (e.g. R04 once per enclosing loop level).
        self._resolved: dict[int, ast.AST | None] = {}
        #: id(def node) -> resolved call sites [(call node, caller id)].
        self._call_sites: dict[int, list[tuple[ast.Call, int | None]]] = {}
        self._fan_in: dict[int, int] = {}
        self._hot: dict[int, int] = {}
        self._functions: list[ast.AST] = []
        self._collect(tree)
        self._scan_all(tree)
        self._fixpoint()
        self._solve_hotness()

    # -- collection --------------------------------------------------------

    def _collect(self, tree: ast.Module) -> None:
        # Breadth-first, matching ast.walk: functions() order is part
        # of the `pepo facts` output contract.
        queue: list[ast.AST] = [tree]
        cursor = 0
        while cursor < len(queue):
            node = queue[cursor]
            cursor += 1
            queue.extend(child_nodes(node))
            if isinstance(node, _FUNCTION_NODES):
                defining = self._scopes.scope_of(node)
                self._defs_by_scope[(id(defining), node.name)] = node
                self._functions.append(node)
                self._effects[id(node)] = FunctionEffects(
                    node=node,
                    name=node.name,
                    qualname=self._qualname(node, defining),
                )
                self._call_sites[id(node)] = []
                self._fan_in[id(node)] = 0
                self._hot[id(node)] = 0

    def _qualname(self, node: ast.AST, defining: Scope) -> str:
        parts = [node.name]
        scope: Scope | None = defining
        while scope is not None and scope.kind is not ScopeKind.MODULE:
            owner = scope.node
            label = getattr(owner, "name", None)
            if label:
                parts.append(label)
            scope = scope.parent
        return ".".join(reversed(parts))

    # -- callee resolution -------------------------------------------------

    def resolve_callee(self, call: ast.Call) -> ast.AST | None:
        """The in-module function a call dispatches to, if resolvable."""
        func = call.func
        if not isinstance(func, ast.Name):
            return None
        return self.resolve_function(func)

    def resolve_function(self, name: ast.Name) -> ast.AST | None:
        """The function def a bare name refers to, if resolvable."""
        key = id(name)
        try:
            return self._resolved[key]
        except KeyError:
            pass
        binding = self._scopes.resolve(name)
        resolved = (
            None
            if binding.scope is None
            else self._defs_by_scope.get((id(binding.scope), name.id))
        )
        self._resolved[key] = resolved
        return resolved

    def _call_is_pure(self, call: ast.Call, effects: FunctionEffects) -> bool:
        """Local purity verdict for one call (callee edges deferred)."""
        func = call.func
        if isinstance(func, ast.Name):
            callee = self.resolve_callee(call)
            if callee is not None:
                effects.callees += (id(callee),)
                return True  # verdict comes from the fixpoint
            binding = self._scopes.resolve(func)
            if (
                binding.kind is BindingKind.BUILTIN
                and func.id in PURE_BUILTINS
            ):
                return True
            return False
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name):
                binding = self._scopes.resolve(base)
                if (
                    binding.kind is BindingKind.IMPORT
                    and base.id in PURE_MODULES
                ):
                    return True
            if self._types is not None:
                receiver = self._types.type_of(base)
                allowed = PURE_METHODS.get(receiver)
                if allowed is not None and func.attr in allowed:
                    return True
            return False
        return False

    # -- per-function local scan -------------------------------------------

    def _scan_all(self, tree: ast.Module) -> None:
        for node in self._functions:
            self._scan_function(node)
        # Module-level call sites (caller = None, hotness base 0).
        for stmt in tree.body:
            if isinstance(stmt, _FUNCTION_NODES):
                continue  # body calls belong to the function's own scan
            for sub in self._walk_unit(stmt):
                if isinstance(sub, ast.Call):
                    callee = self.resolve_callee(sub)
                    if callee is not None:
                        self._call_sites[id(callee)].append((sub, None))
                        self._fan_in[id(callee)] += 1

    def _walk_unit(self, root: ast.AST):
        """Descendants of one statement, nested functions excluded."""
        stack = [root]
        while stack:
            current = stack.pop()
            if current is not root and isinstance(current, _FUNCTION_NODES):
                continue  # separate function unit
            yield current
            stack.extend(child_nodes(current))

    def _scan_function(self, node: ast.AST) -> None:
        """Single-pass local scan.

        Fresh-local classification and effect evidence come out of one
        body walk: fresh/tainted names accumulate while stores and
        calls that depend on the final fresh set are buffered and
        judged afterwards, so reason order still follows walk order.
        """
        effects = self._effects[id(node)]
        scope = self._function_scope(node)
        reasons: list[str] = []
        global_writes: set[str] = set()
        declared_global = scope.declared_global if scope else set()
        declared_nonlocal = scope.declared_nonlocal if scope else set()

        fresh: set[str] = set()
        tainted: set[str] = set()
        params: set[str] = set()
        if hasattr(node, "args"):
            for arg in (
                *node.args.posonlyargs, *node.args.args,
                *node.args.kwonlyargs,
                *([node.args.vararg] if node.args.vararg else []),
                *([node.args.kwarg] if node.args.kwarg else []),
            ):
                params.add(arg.arg)
        # (slot, payload) events in walk order; slot is the reason the
        # event was buffered: 0 plain reason text, 1 store needing the
        # fresh set, 2 call needing the fresh set.
        pending: list[tuple[int, object]] = []

        # _walk_unit inlined (generator resumption per node costs more
        # than the walk itself), with one set probe deciding whether a
        # node matters before any branch dispatch runs.
        dispatch = _SCAN_DISPATCH
        skip = _FUNCTION_SET
        for stmt in node.body:
            stack = [stmt]
            pop = stack.pop
            extend = stack.extend
            while stack:
                sub = pop()
                cls = sub.__class__
                if cls in skip and sub is not stmt:
                    continue  # separate function unit
                extend(child_nodes(sub))
                if cls not in dispatch:
                    continue
                if cls is ast.Name:
                    ctx_cls = sub.ctx.__class__
                    if ctx_cls is ast.Store or ctx_cls is ast.Del:
                        if sub.id in declared_global:
                            pending.append((0, f"writes global {sub.id!r}"))
                            global_writes.add(sub.id)
                        elif sub.id in declared_nonlocal:
                            pending.append(
                                (0, f"writes nonlocal {sub.id!r}")
                            )
                elif cls is ast.Call:
                    pending.append((2, sub))
                elif cls is ast.Attribute or cls is ast.Subscript:
                    ctx_cls = sub.ctx.__class__
                    if ctx_cls is ast.Store or ctx_cls is ast.Del:
                        pending.append((1, sub))
                elif cls is ast.Assign:
                    value = sub.value
                    is_fresh = value.__class__ in _FRESH_SET or (
                        value.__class__ is ast.Call
                        and value.func.__class__ is ast.Name
                        and value.func.id in _FRESH_CONSTRUCTORS
                    )
                    for target in sub.targets:
                        if target.__class__ is ast.Name:
                            (fresh if is_fresh else tainted).add(target.id)
                elif cls is ast.For or cls is ast.AsyncFor:
                    if sub.target.__class__ is ast.Name:
                        tainted.add(sub.target.id)
                elif cls is ast.Yield or cls is ast.YieldFrom:
                    pending.append((0, "generator (body runs on iteration)"))
                elif cls is ast.Await:
                    pending.append((0, "awaits"))
                else:  # Import / ImportFrom
                    pending.append((0, "imports at call time"))

        fresh -= tainted
        fresh -= params
        for slot, payload in pending:
            if slot == 0:
                reasons.append(payload)
            elif slot == 1:
                base = payload.value
                if not (isinstance(base, ast.Name) and base.id in fresh):
                    kind = (
                        "attribute"
                        if isinstance(payload, ast.Attribute)
                        else "subscript"
                    )
                    reasons.append(
                        f"stores through {kind} of non-fresh object"
                    )
            else:
                sub = payload
                mutates_fresh = (
                    isinstance(sub.func, ast.Attribute)
                    and isinstance(sub.func.value, ast.Name)
                    and sub.func.value.id in fresh
                )
                if mutates_fresh:
                    # out = []; out.append(x): mutating a local the
                    # caller cannot alias is internally pure.
                    pass
                elif not self._call_is_pure(sub, effects):
                    label = _callable_label(sub.func)
                    reasons.append(f"calls unresolved/impure {label!r}")
                    effects.has_unknown_calls = True
                # record the call site for hotness either way
                resolved = self.resolve_callee(sub)
                if resolved is not None:
                    self._call_sites[id(resolved)].append((sub, id(node)))
                    self._fan_in[id(resolved)] += 1

        if reasons:
            effects.pure = False
        effects.reasons = tuple(dict.fromkeys(reasons))
        effects.global_writes = frozenset(global_writes)
        # AugAssign targets: `global X; X += 1` stores via a Name with
        # Store ctx, already covered above.  AugAssign through
        # attribute/subscript carries Store ctx on the target too.

    def _function_scope(self, node: ast.AST) -> Scope | None:
        defining = self._scopes.scope_of(node)
        for child in defining.children:
            if child.node is node:
                return child
        return None

    # -- fixpoints ---------------------------------------------------------

    def _fixpoint(self) -> None:
        changed = True
        while changed:
            changed = False
            for node in self._functions:
                effects = self._effects[id(node)]
                callee_writes: set[str] = set(effects.global_writes)
                impure_callee = None
                for callee_id in effects.callees:
                    callee_effects = self._effects.get(callee_id)
                    if callee_effects is None:
                        continue
                    callee_writes |= callee_effects.global_writes
                    if not callee_effects.pure:
                        impure_callee = callee_effects
                if impure_callee is not None and effects.pure:
                    effects.pure = False
                    effects.reasons += (
                        f"calls impure {impure_callee.qualname!r}",
                    )
                    changed = True
                if callee_writes != set(effects.global_writes):
                    effects.global_writes = frozenset(callee_writes)
                    changed = True

    def _solve_hotness(self) -> None:
        changed = True
        while changed:
            changed = False
            for node in self._functions:
                for call, caller_id in self._call_sites[id(node)]:
                    caller_hot = (
                        self._hot.get(caller_id, 0)
                        if caller_id is not None
                        else 0
                    )
                    site_depth = self._hotness.get(id(call), 0)
                    candidate = min(HOTNESS_CAP, caller_hot + site_depth)
                    if candidate > self._hot[id(node)]:
                        self._hot[id(node)] = candidate
                        changed = True

    # -- queries -----------------------------------------------------------

    def effects(self, func: ast.AST) -> FunctionEffects | None:
        return self._effects.get(id(func))

    def is_pure(self, func: ast.AST) -> bool:
        effects = self._effects.get(id(func))
        return effects is not None and effects.pure

    def global_writes(self, func: ast.AST) -> frozenset[str]:
        effects = self._effects.get(id(func))
        return effects.global_writes if effects is not None else frozenset()

    def call_hotness(self, func: ast.AST) -> int:
        """Max loop depth this function is (transitively) called from."""
        return self._hot.get(id(func), 0)

    def fan_in(self, func: ast.AST) -> int:
        return self._fan_in.get(id(func), 0)

    def fan_out(self, func: ast.AST) -> int:
        effects = self._effects.get(id(func))
        return len(set(effects.callees)) if effects is not None else 0

    def functions(self) -> list[ast.AST]:
        return list(self._functions)

    # -- expression purity (rule-facing) -----------------------------------

    def expression_is_pure(self, expr: ast.AST) -> bool:
        """No call in ``expr`` has effects; loads and operators are free.

        Attribute and subscript *loads* are allowed (properties that
        perform work are rare and reading them twice is still safe to
        suggest against); any store makes the expression impure —
        except comprehension for-targets, which never escape their
        comprehension scope.
        """
        comp_targets: set[int] = set()
        for sub in ast.walk(expr):
            if isinstance(sub, ast.comprehension):
                for name in ast.walk(sub.target):
                    comp_targets.add(id(name))
        for sub in ast.walk(expr):
            if isinstance(sub, (ast.Name, ast.Attribute, ast.Subscript)):
                if isinstance(sub.ctx, (ast.Store, ast.Del)):
                    if id(sub) in comp_targets:
                        continue
                    return False
            elif isinstance(sub, ast.Call):
                callee = self.resolve_callee(sub)
                if callee is not None:
                    if not self.is_pure(callee):
                        return False
                    continue
                func = sub.func
                if isinstance(func, ast.Name):
                    binding = self._scopes.resolve(func)
                    if (
                        binding.kind is BindingKind.BUILTIN
                        and func.id in PURE_BUILTINS
                    ):
                        continue
                    return False
                if isinstance(func, ast.Attribute):
                    base = func.value
                    if isinstance(base, ast.Name):
                        binding = self._scopes.resolve(base)
                        if (
                            binding.kind is BindingKind.IMPORT
                            and base.id in PURE_MODULES
                        ):
                            continue
                    if self._types is not None:
                        receiver = self._types.type_of(base)
                        allowed = PURE_METHODS.get(receiver)
                        if allowed is not None and func.attr in allowed:
                            continue
                    return False
                return False
            elif isinstance(sub, (ast.Yield, ast.YieldFrom, ast.Await)):
                return False
        return True
