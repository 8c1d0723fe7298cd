"""Automatic energy refactoring (the JEPO optimizer's "apply" side).

The paper's workflow is: JEPO lists suggestions per class/line (Fig. 5)
and the developer applies them; the evaluation counts applied "Changes"
per classifier (Table IV).  This package automates the safe subset:

* :mod:`repro.optimizer.transforms` — one fix builder per mechanical
  rewrite (modulus→bitmask, ``+=`` string → join, copy-loop → slice,
  loop swap, find()→in, global hoist, ternary→if/else, re.compile
  hoist, sci-notation literals, range(len())→enumerate), each applied
  at the nodes its rule's findings anchor.
* :mod:`repro.optimizer.rewriter` — orchestration: apply the
  analyzer's fixable findings pass by pass to sources/files/projects,
  count changes, emit diffs, and report findings that are detected but
  not auto-fixable.

Rewrites go through ``ast.unparse``; comments and exact formatting are
not preserved (a deliberate trade-off documented in DESIGN.md — the
measurement semantics are unchanged).
"""

from repro.optimizer.rewriter import (
    AppliedChange,
    OptimizationResult,
    Optimizer,
    optimize_source,
)

__all__ = [
    "AppliedChange",
    "OptimizationResult",
    "Optimizer",
    "optimize_source",
]
