"""Optimizer orchestration: apply transforms, count changes, emit diffs.

The per-file change counts feed the "Changes" column of the Table IV
reproduction, exactly as the paper counts the edits made to WEKA.  The
transform pipeline comes from :data:`repro.rules.REGISTRY`, and rules
that have a detector but no transform surface their residual findings
as "detected but not auto-fixable" on the result.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.analyzer.findings import Finding
from repro.optimizer.diff import unified_diff
from repro.optimizer.transforms.base import AppliedChange, Transform


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of optimizing one source unit.

    ``unfixable`` lists findings still present in the *optimized*
    source whose rule ships no transform — the paper's gap between
    "suggested" and "automatically applied".
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
    """Applies the mechanical transform set to sources/files/projects.

    ``max_passes`` controls fixpoint iteration: some rewrites enable
    others (hoisting a statement can leave a single-statement loop body
    that the loop swap needs), so the transform pipeline re-runs until
    quiescent or the bound is hit.

    Each expensive step runs only when a cheap syntactic check says it
    can matter: the re.compile hoist builds its semantic model only
    when a loop body holds a candidate (still from the pristine tree,
    before any rewrite), a transform fixes up locations only after
    recording a change, and the unfixable re-analysis runs only the
    detectors whose rule has no transform.

    Parameters
    ----------
    transforms:
        Explicit transform classes; default is the registry's pipeline
        in ``application_order`` (runtime-registered transforms
        included).
    registry:
        Registry supplying the default pipeline and the transform
        coverage used for ``unfixable``; the process-wide
        :data:`repro.rules.REGISTRY` when omitted.
    report_unfixable:
        Re-analyze the optimized source with the detectors whose rule
        has no transform and attach their findings (default True;
        disable for raw rewrite speed).
    """

    def __init__(
        self,
        transforms: Sequence[type[Transform]] | None = None,
        max_passes: int = 4,
        registry=None,
        report_unfixable: bool = True,
    ) -> None:
        if max_passes < 1:
            raise ValueError(f"max_passes must be >= 1, got {max_passes}")
        if registry is None:
            from repro.rules import REGISTRY as registry
        self._registry = registry
        self._transform_classes = tuple(
            transforms if transforms is not None else registry.transform_classes()
        )
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
        """Rewrite one source string through all transforms to fixpoint."""
        tree = ast.parse(source, filename=filename)
        all_changes: list[AppliedChange] = []
        for _pass in range(self._max_passes):
            pass_changes: list[AppliedChange] = []
            for transform_class in self._transform_classes:
                tree, changes = transform_class().apply(tree)
                pass_changes.extend(changes)
            all_changes.extend(pass_changes)
            if not pass_changes:
                break
        optimized = ast.unparse(tree) + "\n" if all_changes else source
        # The rewritten module must still parse — cheap self-check that
        # guards against a transform emitting a malformed tree.
        ast.parse(optimized, filename=filename)
        return OptimizationResult(
            filename=filename,
            original=source,
            optimized=optimized,
            changes=tuple(all_changes),
            unfixable=self._find_unfixable(optimized, filename),
        )

    def _find_unfixable(self, optimized: str, filename: str) -> tuple[Finding, ...]:
        """Residual findings whose rule ships no transform."""
        if not self._report_unfixable:
            return ()
        from repro.analyzer.engine import Analyzer

        analyzer = Analyzer(
            rules=unfixable_detectors(
                self._registry.detector_classes(), fixable_rule_ids(self._registry)
            )
        )
        return tuple(analyzer.analyze_source(optimized, filename=filename))

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
        from repro.sweep import OptimizeJob

        return OptimizeJob(
            transform_classes=self._transform_classes,
            detector_classes=self._registry.detector_classes(),
            fixable_rule_ids=fixable_rule_ids(self._registry),
            max_passes=self._max_passes,
            report_unfixable=self._report_unfixable,
            registry_fingerprint=self._registry.fingerprint(),
        )

    def total_changes(self, results: dict[str, OptimizationResult]) -> int:
        """Project-wide applied-change count (Table IV "Changes")."""
        return sum(len(r.changes) for r in results.values())


def fixable_rule_ids(registry) -> frozenset[str]:
    """Ids of the rules in ``registry`` that ship a transform."""
    return frozenset(spec.rule_id for spec in registry if spec.transform is not None)


def unfixable_detectors(
    detector_classes: Sequence[type], fixable: frozenset[str]
) -> tuple[type, ...]:
    """The detectors whose findings can be "detected but not auto-fixable".

    Rules are independent (per-rule triggers, per-finding suppression,
    sorted output), so analyzing with only these detectors yields
    exactly the findings that running every detector and dropping the
    fixable rules' findings would.
    """
    return tuple(cls for cls in detector_classes if cls.rule_id not in fixable)


def optimize_source(source: str, filename: str = "<source>") -> OptimizationResult:
    """Module-level convenience using all transforms."""
    return Optimizer().optimize_source(source, filename=filename)
