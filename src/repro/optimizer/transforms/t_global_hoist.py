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
from repro.optimizer.transforms.base import AppliedChange, Transform
from repro.semantics import SemanticModel, build_semantic_model

_BUILTINS = frozenset(dir(builtins))


class GlobalHoistTransform(Transform):
    transform_id = "T_GLOBAL_HOIST"
    rule_id = "R04_GLOBAL_IN_LOOP"
    application_order = 30

    def apply(self, tree: ast.Module) -> tuple[ast.Module, list[AppliedChange]]:
        changes: list[AppliedChange] = []
        module_names = collect_module_names(tree)
        # Full scope resolution backs the name-set heuristics: a
        # candidate is only hoisted when every one of its loads in the
        # loop actually resolves to the module namespace.  This catches
        # bindings the syntactic local scan cannot see — walrus targets
        # earlier in the function, comprehension leaks, nonlocals.
        semantics = build_semantic_model(tree)
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            self._hoist_in_function(func, module_names, changes, semantics)
        if changes:
            ast.fix_missing_locations(tree)
        return tree, changes

    def _hoist_in_function(
        self, func, module_names: set[str], changes, semantics: SemanticModel
    ) -> None:
        locals_ = _function_locals(func)
        body = func.body
        index = 0
        while index < len(body):
            stmt = body[index]
            if isinstance(stmt, (ast.For, ast.While)):
                hoisted = self._hoist_loop(
                    stmt, module_names, locals_, semantics
                )
                for name, alias in hoisted:
                    body.insert(
                        index,
                        ast.Assign(
                            targets=[ast.Name(id=alias, ctx=ast.Store())],
                            value=ast.Name(id=name, ctx=ast.Load()),
                        ),
                    )
                    locals_.add(alias)
                    index += 1
                    changes.append(
                        self._change(
                            stmt, f"hoisted global {name!r} to local {alias!r}"
                        )
                    )
            index += 1

    def _hoist_loop(self, loop, module_names, locals_, semantics):
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
        candidates = [
            name
            for name, load_nodes in reads.items()
            if name in module_names
            and name not in locals_
            and name not in blocked
            and name not in _BUILTINS
            and all(
                semantics.resolve(node).is_module_level
                for node in load_nodes
            )
        ]
        hoisted = []
        for name in candidates:
            alias = f"_local_{name}"
            if alias in locals_ or alias in module_names:
                continue
            _rename_loads(loop, name, alias)
            hoisted.append((name, alias))
        return hoisted


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


def _rename_loads(loop, name: str, alias: str) -> None:
    for node in ast.walk(loop):
        if (
            isinstance(node, ast.Name)
            and node.id == name
            and isinstance(node.ctx, ast.Load)
        ):
            node.id = alias
