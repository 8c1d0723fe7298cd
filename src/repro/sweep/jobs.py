"""Sweep jobs: the per-file work units the engine fans out.

A job is a small, *picklable* description of what to do to one file —
rule/transform classes are carried by reference (module + qualname), so
a ``ProcessPoolExecutor`` worker can reconstruct the real ``Analyzer``
or ``Optimizer`` in its own process via the pool initializer.  Results
cross the process boundary (and land in the on-disk cache) as plain
JSON payloads; :meth:`SweepJob.decode` rebuilds the rich objects on the
parent side.

Payloads never embed the file path: the cache key is content-addressed,
so one entry serves identical content at any path, and the decoding
side stamps the current path onto findings/results.

Findings cross the worker boundary (and land in the cache) in a
*compact* form — one flat positional row per finding instead of a
13-key dict — because on a cold sweep the parent deserializes every
finding from every worker, and key strings dominated that payload.
Every cache and journal key folds ``CACHE_FORMAT`` into the job
fingerprint, so no payload in an older wire form can ever be read back.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analyzer.findings import Finding, Severity
from repro.semantics import SEMANTICS_VERSION
from repro.sweep.cache import CACHE_FORMAT

if TYPE_CHECKING:
    from repro.optimizer.rewriter import OptimizationResult


# -- finding / change codecs ---------------------------------------------


def encode_finding_compact(finding: Finding) -> list:
    """Wire form of a finding, path omitted (content-addressed): one
    flat positional row.

    Field order is part of the cache format — reordering or appending
    fields requires a ``CACHE_FORMAT`` bump.
    """
    return [
        finding.line,
        finding.col,
        finding.rule_id,
        finding.component,
        finding.message,
        finding.suggestion,
        finding.severity.name,
        finding.overhead_percent,
        finding.snippet,
        finding.confidence,
        finding.hot_depth,
        finding.caller_hotness,
        finding.pure_context,
    ]


def decode_finding(row: list, file: str) -> Finding:
    """Rebuild a finding from its compact row, stamping ``file``."""
    return Finding(
        file=file,
        line=row[0],
        col=row[1],
        rule_id=row[2],
        component=row[3],
        message=row[4],
        suggestion=row[5],
        severity=Severity[row[6]],
        overhead_percent=row[7],
        snippet=row[8],
        confidence=row[9],
        hot_depth=row[10],
        caller_hotness=row[11],
        pure_context=row[12],
    )


def _digest(parts: object) -> str:
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


# -- job protocol ---------------------------------------------------------


class SweepJob:
    """Interface the engine drives; implementations are dataclasses."""

    #: Cache namespace (subdirectory under ``.pepo_cache/``).
    kind: str

    def fingerprint(self) -> str:
        """Stable digest of everything besides file content that can
        change this job's output (rule set, options, payload format)."""
        raise NotImplementedError

    def build(self) -> object:
        """Construct the per-process worker state (runs once per worker
        via the pool initializer, or once in-process for serial runs)."""
        raise NotImplementedError

    def run(self, processor: object, path: str, source: str) -> dict:
        """Process one file's source; returns a JSON-able payload."""
        raise NotImplementedError

    def decode(self, path: str, payload: dict) -> object:
        """Rebuild the rich result; ``None`` drops the file from the
        sweep (the optimizer's legacy skip-on-syntax-error behavior)."""
        raise NotImplementedError


@dataclass(frozen=True)
class AnalyzeJob(SweepJob):
    """One analyzer pass per file (``pepo suggest`` on a directory)."""

    rule_classes: tuple[type, ...]
    registry_fingerprint: str = ""
    #: Forwarded to :class:`~repro.analyzer.engine.Analyzer`.  Both are
    #: fingerprinted: the pre-filter is designed to be output-invisible
    #: but a cache must not assume the design holds — flipping either
    #: flag recomputes rather than replaying the other mode's entries.
    prefilter: bool = True
    eager_semantics: bool = False

    kind = "analyze"

    def fingerprint(self) -> str:
        from repro.rules.registry import _class_token

        return _digest(
            (
                self.kind,
                CACHE_FORMAT,
                SEMANTICS_VERSION,
                self.registry_fingerprint,
                tuple(_class_token(cls) for cls in self.rule_classes),
                self.prefilter,
                self.eager_semantics,
            )
        )

    def build(self) -> object:
        from repro.analyzer.engine import Analyzer

        return Analyzer(
            rules=self.rule_classes,
            prefilter=self.prefilter,
            eager_semantics=self.eager_semantics,
        )

    def run(self, processor, path: str, source: str) -> dict:
        try:
            findings = processor.analyze_source(source, filename=path)
        except SyntaxError:
            return {"error": "syntax"}
        return {"findings": [encode_finding_compact(f) for f in findings]}

    def decode(self, path: str, payload: dict) -> list[Finding]:
        if "error" in payload:
            # JEPO shows an empty view rather than failing the sweep.
            return []
        return [decode_finding(item, path) for item in payload["findings"]]


@dataclass(frozen=True)
class OptimizeJob(SweepJob):
    """One optimizer run per file (``pepo optimize`` on a directory).

    Workers build the same :class:`~repro.optimizer.rewriter.Optimizer`
    an in-process run uses and call its ``optimize_source``, so a sweep
    and ``Optimizer.optimize_source`` share one code path.  The
    optimizer reads its detectors from the process-wide registry, which
    the registry fingerprint covers.
    """

    transform_classes: tuple[type, ...]
    max_passes: int = 4
    report_unfixable: bool = True
    registry_fingerprint: str = ""

    kind = "optimize"

    def fingerprint(self) -> str:
        from repro.rules.registry import _class_token

        return _digest(
            (
                self.kind,
                CACHE_FORMAT,
                SEMANTICS_VERSION,
                self.registry_fingerprint,
                tuple(_class_token(cls) for cls in self.transform_classes),
                self.max_passes,
                self.report_unfixable,
            )
        )

    def build(self) -> object:
        from repro.optimizer.rewriter import Optimizer

        return Optimizer(
            transforms=self.transform_classes,
            max_passes=self.max_passes,
            report_unfixable=self.report_unfixable,
        )

    def run(self, processor, path: str, source: str) -> dict:
        try:
            result = processor.optimize_source(source, filename=path)
        except SyntaxError:
            return {"error": "syntax"}
        return {
            "original": result.original,
            "optimized": result.optimized,
            "changes": [dataclasses.asdict(change) for change in result.changes],
            "unfixable": [encode_finding_compact(f) for f in result.unfixable],
        }

    def decode(self, path: str, payload: dict) -> "OptimizationResult | None":
        if "error" in payload:
            # Legacy sweep behavior: unprocessable files are skipped.
            return None
        from repro.optimizer.rewriter import OptimizationResult
        from repro.optimizer.transforms.base import AppliedChange

        return OptimizationResult(
            filename=path,
            original=payload["original"],
            optimized=payload["optimized"],
            changes=tuple(
                AppliedChange(**change) for change in payload["changes"]
            ),
            unfixable=tuple(
                decode_finding(item, path) for item in payload["unfixable"]
            ),
        )
