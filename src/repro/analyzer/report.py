"""Aggregated findings reporting: per-rule counts and hotspot files.

The Fig. 5 view lists findings one by one; a project sweep over
thousands of files needs the rollup first — which rules dominate,
which files are worst — before diving in.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analyzer.findings import Finding, Severity
from repro.views.tables import render_table


@dataclass(frozen=True)
class RuleCount:
    rule_id: str
    component: str
    count: int
    max_severity: Severity
    paper_overhead_percent: float


class FindingsSummary:
    """Rollup over findings from one or many files."""

    def __init__(
        self,
        findings_by_file: dict[str, list[Finding]],
        suppressed_by_file: dict[str, list[Finding]] | None = None,
    ) -> None:
        self._by_file = {
            filename: list(findings)
            for filename, findings in findings_by_file.items()
        }
        self._suppressed = {
            filename: list(findings)
            for filename, findings in (suppressed_by_file or {}).items()
        }

    @classmethod
    def from_findings(cls, findings: list[Finding]) -> "FindingsSummary":
        by_file: dict[str, list[Finding]] = {}
        for finding in findings:
            by_file.setdefault(finding.file, []).append(finding)
        return cls(by_file)

    @property
    def total(self) -> int:
        return sum(len(f) for f in self._by_file.values())

    @property
    def suppressed_total(self) -> int:
        return sum(len(f) for f in self._suppressed.values())

    def suppressed_counts(self) -> dict[str, int]:
        """Per-rule counts of ``# pepo: ignore`` suppressions — the
        provenance trail showing which rules developers silence most."""
        counts: dict[str, int] = {}
        for findings in self._suppressed.values():
            for finding in findings:
                counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))

    def rule_counts(self) -> list[RuleCount]:
        """Per-rule totals, most frequent first."""
        buckets: dict[str, list[Finding]] = {}
        for findings in self._by_file.values():
            for finding in findings:
                buckets.setdefault(finding.rule_id, []).append(finding)
        from repro.rules import REGISTRY

        counts = [
            RuleCount(
                rule_id=rule_id,
                component=REGISTRY.get(rule_id).python_component,
                count=len(findings),
                max_severity=max(f.severity for f in findings),
                paper_overhead_percent=REGISTRY.get(rule_id).overhead_percent,
            )
            for rule_id, findings in buckets.items()
        ]
        counts.sort(key=lambda c: (-c.count, c.rule_id))
        return counts

    def hotspot_files(self, n: int = 10) -> list[tuple[str, int]]:
        """Files with the most findings, worst first."""
        ranked = sorted(
            ((filename, len(findings))
             for filename, findings in self._by_file.items()
             if findings),
            key=lambda item: (-item[1], item[0]),
        )
        return ranked[:n]

    def severity_histogram(self) -> dict[Severity, int]:
        histogram = {severity: 0 for severity in Severity}
        for findings in self._by_file.values():
            for finding in findings:
                histogram[finding.severity] += 1
        return histogram

    def render(self) -> str:
        lines = [
            render_table(
                headers=("Rule", "Component", "Count", "Max severity",
                         "Paper overhead (%)"),
                rows=[
                    (
                        c.rule_id,
                        c.component,
                        str(c.count),
                        c.max_severity.name,
                        f"{c.paper_overhead_percent:,.0f}",
                    )
                    for c in self.rule_counts()
                ],
                title=f"Findings summary — {self.total} total",
            )
        ]
        hotspots = self.hotspot_files(5)
        if hotspots:
            lines.append("")
            lines.append("Hotspot files:")
            for filename, count in hotspots:
                lines.append(f"  {count:4d}  {filename}")
        if self.suppressed_total:
            breakdown = ", ".join(
                f"{rule_id}: {count}"
                for rule_id, count in self.suppressed_counts().items()
            )
            lines.append("")
            lines.append(
                f"{self.suppressed_total} finding(s) suppressed by "
                f"# pepo: ignore comments ({breakdown})"
            )
        return "\n".join(lines)
