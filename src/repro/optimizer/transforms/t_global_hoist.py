"""Module-global reads in loops → pre-loop local binding (rule R04).

For each top-level loop inside a function, every module-level name that
is only *read* inside the loop gets a local alias bound just before the
loop, and the loop's reads are renamed to the alias::

    RATE = 0.07                      RATE = 0.07
    def f(xs):                       def f(xs):
        for x in xs:          →          _local_RATE = RATE
            t += x * RATE                for x in xs:
                                             t += x * _local_RATE

Preconditions: the name is bound at module level, never assigned or
deleted inside the function, not a builtin, and not used as an
attribute-assignment or call *target* that could rebind it.  The
purity call graph adds an interprocedural gate: when the loop body
calls a function whose (transitive) effect set writes the global,
the pre-loop snapshot would go stale mid-loop, so the name is not
hoisted.
"""

from __future__ import annotations

import ast
import builtins

from repro.analyzer.rules.base import collect_module_names, target_names
from repro.optimizer.transforms.base import AppliedChange, FixContext, Transform
from repro.semantics import SemanticModel

_BUILTINS = frozenset(dir(builtins))
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


class GlobalHoistTransform(Transform):
    transform_id = "T_GLOBAL_HOIST"
    rule_id = "R04_GLOBAL_IN_LOOP"
    application_order = 30

    def fix(self, node: ast.Name, ctx: FixContext) -> AppliedChange | None:
        site = _hoist_site(node, ctx)
        if site is None:
            return None
        func, loop = site
        memo = ctx.memo
        # Facts read before this pass hoists anything, as if every
        # name of a function were hoisted at once, enclosing functions
        # first: the module's names, each function's locals (growing
        # by each alias) and, per loop, its reads and the names it
        # must not hoist.
        if ctx.tree not in memo:
            memo[ctx.tree] = collect_module_names(ctx.tree)
        module_names = memo[ctx.tree]
        memo.update(
            (scope, _function_locals(scope))
            for scope in (func, *ctx.ancestors(func))
            if scope not in memo and isinstance(scope, _FUNCTIONS)
        )
        locals_ = memo[func]
        facts = memo.get(loop)
        if facts is None:
            facts = memo[loop] = _loop_facts(loop, ctx.semantics)
        reads, blocked = facts
        name = node.id
        loads = reads.get(name, ())
        alias = f"_local_{name}"
        if not (
            name in module_names
            and name not in locals_
            and name not in blocked
            and name not in _BUILTINS
            and alias not in locals_
            and alias not in module_names
            and any(load is node for load in loads)
            # Full scope resolution backs the name-set heuristics: a
            # name is only hoisted when every one of its loads in the
            # loop actually resolves to the module namespace.  This
            # catches bindings the syntactic local scan cannot see —
            # walrus targets earlier in the function, comprehension
            # leaks, nonlocals.
            and all(ctx.semantics.resolve(load).is_module_level for load in loads)
        ):
            return None
        for load in loads:
            load.id = alias
        locals_.add(alias)
        ctx.touch(loop)
        ctx.insert(
            loop,
            ast.Assign(
                targets=[ast.Name(id=alias, ctx=ast.Store())],
                value=ast.Name(id=name, ctx=ast.Load()),
            ),
        )
        return self._change(loop, f"hoisted global {name!r} to local {alias!r}")


def _hoist_site(node: ast.AST, ctx: FixContext):
    """(function, loop) when ``node`` lies in a loop that is a top-level
    statement of the innermost function holding it, else None."""
    chain = list(ctx.ancestors(node))
    func = next((a for a in chain if isinstance(a, _FUNCTIONS)), None)
    if func is None:
        return None
    loops = [
        a for a in chain[: chain.index(func)] if isinstance(a, (ast.For, ast.While))
    ]
    if loops and any(stmt is loops[-1] for stmt in func.body):
        return func, loops[-1]
    return None


def _loop_facts(loop, semantics: SemanticModel):
    """The loop's Load names by id, and the names it must not hoist."""
    reads: dict[str, list[ast.Name]] = {}
    blocked: set[str] = set()
    callgraph = semantics.purity
    for node in ast.walk(loop):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append(node)
            else:
                blocked.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # Renaming inside nested scopes is unsafe; skip their names.
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    blocked.add(sub.id)
        elif isinstance(node, ast.Call):
            # Interprocedural gate: a loop-body call that (even
            # transitively) rebinds a global makes the pre-loop
            # snapshot stale — the call graph's effect sets block
            # exactly those names.
            callee = _resolve_call(node, semantics)
            if callee is not None:
                blocked.update(callgraph.global_writes(callee))
    return reads, blocked


def _resolve_call(call: ast.Call, semantics: SemanticModel):
    """The function def a loop-body call dispatches to, alias-aware.

    A previous hoist pass may already have aliased the callee
    (``_local_bump = bump; _local_bump()``), so when direct resolution
    fails, follow one hop through the alias's reaching definitions —
    otherwise the effect gate would go blind on the second fixpoint
    pass.
    """
    callgraph = semantics.purity
    callee = callgraph.resolve_callee(call)
    if callee is not None or not isinstance(call.func, ast.Name):
        return callee
    resolved = None
    for definition in semantics.defs_reaching(call.func):
        node = definition.node
        if not (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Name)
        ):
            return None
        target = callgraph.resolve_function(node.value)
        if target is None or (resolved is not None and target is not resolved):
            return None
        resolved = target
    return resolved


def _function_locals(func) -> set[str]:
    names: set[str] = set()
    args = func.args
    for arg in (
        *args.posonlyargs, *args.args, *args.kwonlyargs,
        *([args.vararg] if args.vararg else []),
        *([args.kwarg] if args.kwarg else []),
    ):
        names.add(arg.arg)
    declared_global: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node is not func:
                names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                names.update(target_names(target))
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            names.update(target_names(node.target))
        elif isinstance(node, ast.For):
            names.update(target_names(node.target))
        elif isinstance(node, ast.withitem) and node.optional_vars:
            names.update(target_names(node.optional_vars))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    names.add((alias.asname or alias.name).split(".")[0])
    # Names declared `global` are counted as locals here so that the
    # hoister never touches them — they may be rebound by the function.
    return names | declared_global
