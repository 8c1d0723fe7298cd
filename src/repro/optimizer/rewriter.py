"""Optimizer orchestration: apply the analyzer's fixes, count changes, emit diffs.

The per-file change counts feed the "Changes" column of the Table IV
reproduction, exactly as the paper counts the edits made to WEKA.  The
optimizer applies the analyzer's own suggestions: every change is a
kept finding of a rule whose transform rewrote the tree at the node the
finding anchors.  Findings of rules without a transform surface as
"detected but not auto-fixable" on the result.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.analyzer.engine import Analyzer
from repro.analyzer.findings import Finding
from repro.analyzer.suppress import suppression_map
from repro.optimizer.diff import unified_diff
from repro.optimizer.transforms.base import AppliedChange, FixContext, Transform


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of optimizing one source unit.

    ``unfixable`` lists the findings, in the optimized tree, of rules
    that ship no transform — the paper's gap between "suggested" and
    "automatically applied".  Their lines are lines of ``original``.
    """

    filename: str
    original: str
    optimized: str
    changes: tuple[AppliedChange, ...]
    unfixable: tuple[Finding, ...] = ()

    @property
    def changed(self) -> bool:
        return bool(self.changes)

    def diff(self) -> str:
        return unified_diff(self.original, self.optimized, self.filename)

    def count_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for change in self.changes:
            counts[change.rule_id] = counts.get(change.rule_id, 0) + 1
        return counts


class Optimizer:
    """Applies the analyzer's fixable findings to sources/files/projects.

    ``optimize_source`` parses once and then works in passes.  Each
    pass analyzes the live tree once, against the original source text,
    so suppression comments and snippets resolve by original line in
    every pass.  Each kept finding whose rule has a transform goes, with
    its anchor node, to that transform, in ``application_order`` and
    then source order.  A fix waits for the next pass when an earlier
    transform of the pass changed its statement, or its function when
    the fix reads the pass's semantic model (see
    :meth:`FixContext.apply`).  Passes repeat
    while they apply something (some rewrites enable others: the
    string builder's append loop is then an R10 copy loop), at most
    ``max_passes`` times.  The first pass that applies nothing supplies
    the unfixable report; only when ``max_passes`` ends the loop does
    one more analysis run for it.

    Parameters
    ----------
    transforms:
        Explicit transform classes; default is the registry's pipeline
        in ``application_order`` (runtime-registered transforms
        included).  Each pass runs the registered detectors of these
        transforms' rules, plus every default detector whose rule has
        no transform.
    report_unfixable:
        Run the detectors of rules without a transform and attach their
        findings (default True; disable for raw rewrite speed).
    """

    def __init__(
        self,
        transforms: Sequence[type[Transform]] | None = None,
        max_passes: int = 4,
        report_unfixable: bool = True,
    ) -> None:
        if max_passes < 1:
            raise ValueError(f"max_passes must be >= 1, got {max_passes}")
        from repro.rules import REGISTRY

        self._transform_classes = tuple(
            transforms if transforms is not None else REGISTRY.transform_classes()
        )
        #: rule id -> (pipeline position, transform)
        self._fixers: dict[str, tuple[int, Transform]] = {
            cls.rule_id: (position, cls())
            for position, cls in enumerate(self._transform_classes)
        }
        detectors = [
            REGISTRY.get(rule_id).detector
            for rule_id in self._fixers
            if rule_id in REGISTRY
        ]
        if report_unfixable:
            detectors += [
                cls
                for cls in REGISTRY.detector_classes()
                if not REGISTRY.has_transform(cls.rule_id)
            ]
        self._analyzer = Analyzer(rules=detectors)
        self._max_passes = max_passes
        self._report_unfixable = report_unfixable
        # Accounting from the most recent optimize_project sweep.
        self.last_sweep_stats: "SweepStats | None" = None
        self.last_quarantine: "QuarantineReport | None" = None
        # Self-profile of the most recent sweep (SweepOptions.self_profile).
        self.last_profile = None

    def optimize_source(
        self, source: str, filename: str = "<source>"
    ) -> OptimizationResult:
        """Apply the fixable findings of ``source`` pass by pass."""
        tree = ast.parse(source, filename=filename)
        suppressions = suppression_map(source, tree)
        changes: list[AppliedChange] = []
        for _pass in range(self._max_passes):
            findings, semantics = self._analyzer.analyze_tree(
                tree, source, filename, suppressions, rewritten=bool(changes)
            )
            applied = self._apply(tree, semantics, findings)
            if not applied:
                break
            changes.extend(applied)
        else:
            if self._report_unfixable:
                findings, _semantics = self._analyzer.analyze_tree(
                    tree, source, filename, suppressions, rewritten=True
                )
        optimized = ast.unparse(tree) + "\n" if changes else source
        # The rewritten module must still parse — cheap self-check that
        # guards against a transform emitting a malformed tree.
        ast.parse(optimized, filename=filename)
        unfixable = ()
        if self._report_unfixable:
            unfixable = tuple(
                f for f, _node in findings if f.rule_id not in self._fixers
            )
        return OptimizationResult(
            filename=filename,
            original=source,
            optimized=optimized,
            changes=tuple(changes),
            unfixable=unfixable,
        )

    def _apply(self, tree, semantics, findings) -> list[AppliedChange]:
        """One pass's fixes, in pipeline then source order."""
        work = []
        for finding, node in findings:
            fixer = self._fixers.get(finding.rule_id)
            if fixer is not None and node is not None:
                work.append((fixer[0], fixer[1], node))
        # Findings arrive in source order; a stable sort keeps it.
        work.sort(key=lambda item: item[0])
        if not work:
            return []
        ctx = FixContext(tree, semantics)
        applied: list[AppliedChange] = []
        for _key, transform, node in work:
            change = ctx.apply(transform, node)
            if change is not None:
                applied.append(change)
        return applied

    def optimize_file(self, path: str | Path, write: bool = False) -> OptimizationResult:
        """Optimize a file; ``write=True`` rewrites it in place."""
        path = Path(path)
        result = self.optimize_source(
            path.read_text(encoding="utf-8"), filename=str(path)
        )
        if write and result.changed:
            path.write_text(result.optimized, encoding="utf-8")
        return result

    def optimize_project(
        self,
        project_dir: str | Path,
        write: bool = False,
        *,
        jobs: int | None = None,
        cache: bool = False,
        cache_dir: str | Path | None = None,
        exclude: Sequence[str] = (),
        options: "SweepOptions | None" = None,
    ) -> dict[str, OptimizationResult]:
        """Optimize every ``.py`` under a directory tree.

        Unparseable, unreadable, and non-UTF-8 files are skipped
        silently (consistent with the analyzer's project sweep).  The
        sweep runs through :class:`repro.sweep.SweepEngine`: ``jobs``
        fans files out over worker processes, ``cache`` reuses on-disk
        results keyed by content hash + registry fingerprint, and
        ``options`` tunes supervision (per-file timeout, retry budget,
        resume; see :class:`repro.sweep.SweepOptions`).  Files
        quarantined after repeated crashes/hangs are skipped (no
        rewrite) and listed in :attr:`last_quarantine`.  Writes happen
        in the parent process after the sweep, so cached and
        freshly-computed results rewrite files identically.
        """
        from repro.sweep import SweepEngine

        engine = SweepEngine(
            jobs=jobs,
            cache=cache,
            cache_dir=cache_dir,
            exclude=exclude,
            options=options,
        )
        results = engine.run(project_dir, self._sweep_job())
        self.last_sweep_stats = engine.last_stats
        self.last_quarantine = engine.last_quarantine
        self.last_profile = engine.last_profile
        if write:
            for filename, result in results.items():
                if result.changed:
                    Path(filename).write_text(result.optimized, encoding="utf-8")
        return results

    def _sweep_job(self):
        """The picklable per-file work unit for project sweeps."""
        from repro.rules import REGISTRY
        from repro.sweep import OptimizeJob

        return OptimizeJob(
            transform_classes=self._transform_classes,
            max_passes=self._max_passes,
            report_unfixable=self._report_unfixable,
            registry_fingerprint=REGISTRY.fingerprint(),
        )

    def total_changes(self, results: dict[str, OptimizationResult]) -> int:
        """Project-wide applied-change count (Table IV "Changes")."""
        return sum(len(r.changes) for r in results.values())


def optimize_source(source: str, filename: str = "<source>") -> OptimizationResult:
    """Module-level convenience using all transforms."""
    return Optimizer().optimize_source(source, filename=filename)
