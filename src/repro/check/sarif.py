"""SARIF 2.1.0 export: findings as code-scanning results.

One run, one driver (``pepo``), one rule entry per distinct rule that
fired, one result per finding.  Severities map onto SARIF levels —
ADVICE → ``note``, MEDIUM → ``warning``, HIGH → ``error`` — and each
result carries the baseline fingerprint under ``partialFingerprints``
so scanning UIs track findings across commits the same way
``--baseline`` does.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping

from repro.analyzer.findings import Finding, Severity
from repro.check.gate import Fingerprinter

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_LEVELS = {
    Severity.ADVICE: "note",
    Severity.MEDIUM: "warning",
    Severity.HIGH: "error",
}

#: partialFingerprints key; the suffix versions the hashing scheme.
FINGERPRINT_KEY = "pepoFingerprint/v1"


def _rule_entries(findings: Iterable[Finding]) -> list[dict]:
    by_id: dict[str, Finding] = {}
    for finding in findings:
        by_id.setdefault(finding.rule_id, finding)
    entries = []
    for rule_id in sorted(by_id):
        example = by_id[rule_id]
        properties: dict[str, object] = {}
        if example.overhead_percent is not None:
            properties["overheadPercent"] = example.overhead_percent
        entries.append(
            {
                "id": rule_id,
                "shortDescription": {"text": example.component},
                "fullDescription": {"text": example.suggestion},
                "defaultConfiguration": {"level": _LEVELS[example.severity]},
                "properties": properties,
            }
        )
    return entries


def to_sarif(
    findings_by_file: Mapping[str, Iterable[Finding]],
    root: str | Path | None = None,
    tool_version: str | None = None,
    quarantine=None,
) -> dict:
    """The complete SARIF 2.1.0 document as a JSON-ready dict.

    ``quarantine`` (a :class:`repro.sweep.QuarantineReport`, optional)
    records files the sweep gave up on — crashed, hung, or exhausted a
    worker repeatedly — as ``toolExecutionNotifications`` in the run's
    invocation, so a scanning UI shows *why* those files carry no
    results instead of silently presenting them as clean.
    """
    if tool_version is None:
        from repro import __version__ as tool_version

    ordered = {
        file: sorted(findings_by_file[file])
        for file in sorted(findings_by_file)
    }
    all_findings = [f for findings in ordered.values() for f in findings]
    rule_ids = [entry["id"] for entry in _rule_entries(all_findings)]
    fingerprint = Fingerprinter(root)
    fingerprint_key = FINGERPRINT_KEY
    results = []
    for file, findings in ordered.items():
        uri = fingerprint.relative_file(file)
        for finding in findings:
            results.append(
                {
                    "ruleId": finding.rule_id,
                    "ruleIndex": rule_ids.index(finding.rule_id),
                    "level": _LEVELS[finding.severity],
                    # SARIF rank is 0–100; confidence is [0, 1], so
                    # scanning UIs can sort results by our score.
                    "rank": round(finding.confidence * 100, 2),
                    "message": {
                        "text": f"{finding.message} "
                        f"Suggestion: {finding.suggestion}"
                    },
                    "locations": [
                        {
                            "physicalLocation": {
                                "artifactLocation": {"uri": uri},
                                "region": {
                                    "startLine": max(finding.line, 1),
                                    "startColumn": finding.col + 1,
                                    "snippet": {"text": finding.snippet},
                                },
                            }
                        }
                    ],
                    "partialFingerprints": {
                        fingerprint_key: fingerprint(finding)
                    },
                    "properties": {
                        "confidence": finding.confidence,
                        "severity": finding.severity.name,
                        "component": finding.component,
                        "hotDepth": finding.hot_depth,
                        "callerHotness": finding.caller_hotness,
                        "pureContext": finding.pure_context,
                    },
                }
            )
    run: dict = {
        "tool": {
            "driver": {
                "name": "pepo",
                "version": tool_version,
                "rules": _rule_entries(all_findings),
            }
        },
        "results": results,
    }
    if quarantine:
        run["invocations"] = [
            {
                "executionSuccessful": True,
                "toolExecutionNotifications": [
                    {
                        "level": "warning",
                        "message": {
                            "text": f"file quarantined after "
                            f"{entry.failures} failure(s) "
                            f"({entry.reason}); no results for it"
                            + (f": {entry.detail}" if entry.detail else "")
                        },
                        "locations": [
                            {
                                "physicalLocation": {
                                    "artifactLocation": {
                                        "uri": fingerprint.relative_file(
                                            entry.path
                                        )
                                    }
                                }
                            }
                        ],
                    }
                    for entry in quarantine.entries
                ],
            }
        ]
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [run],
    }
