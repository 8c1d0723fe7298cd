"""Fingerprints, baselines, and the pass/fail decision for ``pepo check``.

Fingerprints must survive the two edits CI sees constantly — lines
shifting as unrelated code is added, and checkouts living at different
absolute paths — so they hash the *rule*, the *scan-root-relative
path*, and the *whitespace-normalized snippet* rather than line
numbers.  Two identical snippets in one file share a fingerprint; that
is deliberate (fixing one of two duplicated patterns should not
surface the survivor as "new") and documented in the README.

They must *not* survive a rule revision: the detector's ``version``
is folded in, so bumping it (e.g. when a rule gains a flow-sensitive
gate) retires that rule's baselined fingerprints wholesale and the
refreshed verdicts are re-recorded.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path, PurePath
from typing import Iterable, Mapping

from repro.analyzer.findings import Finding, Severity

#: Baseline file schema version.
BASELINE_FORMAT = 1


def normalize_snippet(snippet: str) -> str:
    """Collapse all whitespace runs so re-indentation keeps the print."""
    return " ".join(snippet.split())


def _rule_version(rule_id: str) -> int:
    """The registered detector's version (1 for unknown rules).

    Folding this into the fingerprint retires every baselined finding
    of a rule the moment its detection logic is revised: a stale
    suppression must not cover a verdict the new logic would change.
    """
    from repro.rules import REGISTRY

    if rule_id in REGISTRY:
        detector = REGISTRY.get(rule_id).detector
        if detector is not None:
            return getattr(detector, "version", 1)
    return 1


class Fingerprinter:
    """Fingerprints and scan-root-relative paths for one call.

    Built once per ``evaluate``/baseline/SARIF export, it resolves
    ``root`` once and memoizes each distinct file's relative path and
    each rule's version, so a call costs one hash per finding rather
    than a filesystem ``resolve`` and several path objects each.  The
    memo lives only as long as the instance: a rule whose version is
    bumped between two calls gets fresh fingerprints in the second.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self._root = root
        self._resolved = Path(root).resolve() if root is not None else None
        self._files: dict[str, str] = {}
        self._versions: dict[str, str] = {}

    def relative_file(self, file: str) -> str:
        relative = self._files.get(file)
        if relative is None:
            path = PurePath(file)
            if self._root is not None:
                try:
                    path = path.relative_to(self._resolved)
                except ValueError:
                    try:
                        path = path.relative_to(self._root)
                    except ValueError:
                        pass
            relative = self._files[file] = path.as_posix()
        return relative

    def __call__(self, finding: Finding) -> str:
        """Stable 16-hex-digit id for one finding (see
        :func:`finding_fingerprint`)."""
        rule_id = finding.rule_id
        version = self._versions.get(rule_id)
        if version is None:
            version = self._versions[rule_id] = str(_rule_version(rule_id))
        payload = "\x1f".join(
            (
                rule_id,
                version,
                self.relative_file(finding.file),
                normalize_snippet(finding.snippet),
            )
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def finding_fingerprint(
    finding: Finding, root: str | Path | None = None
) -> str:
    """Stable 16-hex-digit id for one finding.

    ``root`` relativizes the path so baselines recorded in one checkout
    match findings from another.  The rule's registered version is
    part of the hash, so a revised rule never inherits stale
    suppressions.  To fingerprint many findings, build one
    :class:`Fingerprinter` and call it per finding.
    """
    return Fingerprinter(root)(finding)


@dataclass
class Baseline:
    """A recorded set of accepted finding fingerprints.

    The file format is line-diffable JSON so baseline updates review
    well: a sorted fingerprint array plus bookkeeping counts.
    """

    fingerprints: frozenset[str] = frozenset()
    generated_from: str = ""

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict) or "fingerprints" not in data:
            raise ValueError(f"not a pepo baseline file: {path}")
        return cls(
            fingerprints=frozenset(data["fingerprints"]),
            generated_from=data.get("generated_from", ""),
        )

    def save(self, path: str | Path) -> None:
        document = {
            "format": BASELINE_FORMAT,
            "tool": "pepo",
            "generated_from": self.generated_from,
            "count": len(self.fingerprints),
            "fingerprints": sorted(self.fingerprints),
        }
        Path(path).write_text(
            json.dumps(document, indent=2) + "\n", encoding="utf-8"
        )

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self.fingerprints

    @classmethod
    def from_findings(
        cls,
        findings_by_file: Mapping[str, Iterable[Finding]],
        root: str | Path | None = None,
    ) -> "Baseline":
        fingerprint = Fingerprinter(root)
        return cls(
            fingerprints=frozenset(
                fingerprint(finding)
                for findings in findings_by_file.values()
                for finding in findings
            ),
            generated_from=str(root or ""),
        )


#: ``--fail-on`` spellings → minimum failing severity.
FAIL_ON_LEVELS = {
    "advice": Severity.ADVICE,
    "medium": Severity.MEDIUM,
    "high": Severity.HIGH,
}


@dataclass
class CheckResult:
    """Everything ``pepo check`` decided, ready for rendering.

    ``new`` are findings whose fingerprint is absent from the baseline
    (all findings when no baseline was given); only new findings at or
    above the threshold gate the build.
    """

    findings_by_file: dict[str, list[Finding]]
    new: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    fail_on: Severity = Severity.MEDIUM

    @property
    def total(self) -> int:
        return sum(len(f) for f in self.findings_by_file.values())

    @property
    def gating(self) -> list[Finding]:
        """New findings severe enough to fail the build."""
        return [f for f in self.new if f.severity >= self.fail_on]

    @property
    def exit_code(self) -> int:
        return 1 if self.gating else 0


def evaluate(
    findings_by_file: Mapping[str, Iterable[Finding]],
    *,
    fail_on: Severity = Severity.MEDIUM,
    baseline: Baseline | None = None,
    root: str | Path | None = None,
) -> CheckResult:
    """Split findings into new vs baselined and decide pass/fail."""
    ordered = {
        file: sorted(findings) for file, findings in findings_by_file.items()
    }
    new: list[Finding] = []
    baselined: list[Finding] = []
    fingerprint = Fingerprinter(root)
    for findings in ordered.values():
        for finding in findings:
            if baseline is not None and fingerprint(finding) in baseline:
                baselined.append(finding)
            else:
                new.append(finding)
    return CheckResult(
        findings_by_file=ordered,
        new=new,
        baselined=baselined,
        fail_on=fail_on,
    )
