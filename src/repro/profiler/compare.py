"""Before/after profile comparison — closing the JEPO loop.

The paper's workflow is measure → refactor → measure again; this module
diff's two :class:`~repro.profiler.records.ProfileResult` objects at
method granularity so a developer sees exactly where the refactor paid
off (or regressed).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.profiler.records import ProfileResult
from repro.rapl.domains import Domain
from repro.views.tables import render_table


@dataclass(frozen=True)
class MethodDelta:
    """Energy movement of one method between two profiles."""

    method: str
    before_joules: float
    after_joules: float
    before_calls: int
    after_calls: int

    @property
    def delta_joules(self) -> float:
        return self.after_joules - self.before_joules

    @property
    def improvement_percent(self) -> float:
        """Positive = the method got cheaper."""
        if self.before_joules <= 0:
            return 0.0
        return -self.delta_joules / self.before_joules * 100.0

    @property
    def status(self) -> str:
        if self.before_calls == 0:
            return "added"
        if self.after_calls == 0:
            return "removed"
        if abs(self.improvement_percent) < 1.0:
            return "unchanged"
        return "improved" if self.delta_joules < 0 else "regressed"


class ProfileComparison:
    """Method-level diff of two profiles of the same workload."""

    def __init__(self, before: ProfileResult, after: ProfileResult) -> None:
        self.before = before
        self.after = after
        self._deltas = self._build()

    def _build(self) -> list[MethodDelta]:
        before_agg = {a.method: a for a in self.before.aggregate()}
        after_agg = {a.method: a for a in self.after.aggregate()}
        deltas = []
        for method in sorted(set(before_agg) | set(after_agg)):
            b = before_agg.get(method)
            a = after_agg.get(method)
            deltas.append(
                MethodDelta(
                    method=method,
                    before_joules=b.package_joules if b else 0.0,
                    after_joules=a.package_joules if a else 0.0,
                    before_calls=b.calls if b else 0,
                    after_calls=a.calls if a else 0,
                )
            )
        # Largest absolute movement first.
        deltas.sort(key=lambda d: abs(d.delta_joules), reverse=True)
        return deltas

    @property
    def deltas(self) -> list[MethodDelta]:
        return list(self._deltas)

    def total_improvement_percent(self) -> float | None:
        """Whole-workload improvement on exclusive package energy.

        ``None`` when either profile carries no exclusive energy, as
        profiles read back from ``result.txt`` do: both totals would
        read 0 J and the improvement a made-up +0.0 %.
        """
        if not (_has_exclusive(self.before) and _has_exclusive(self.after)):
            return None
        before = self.before.total_package_joules()
        after = self.after.total_package_joules()
        if before <= 0:
            return 0.0
        return (before - after) / before * 100.0

    def regressions(self, threshold_percent: float = 5.0) -> list[MethodDelta]:
        """Methods that got measurably worse — the review gate."""
        return [
            d
            for d in self._deltas
            if d.before_calls and d.after_calls
            and d.improvement_percent < -threshold_percent
        ]

    def render(self, limit: int | None = 15) -> str:
        rows = self._deltas if limit is None else self._deltas[:limit]
        total = self.total_improvement_percent()
        if total is None:
            summary = (
                "n/a: a profile has no exclusive energy "
                "(result.txt stores inclusive energy only)"
            )
        else:
            summary = f"{total:+.1f} %"
        return render_table(
            headers=("Method", "Before (J)", "After (J)", "Δ (%)", "Status"),
            rows=[
                (
                    d.method,
                    f"{d.before_joules:.6f}",
                    f"{d.after_joules:.6f}",
                    f"{d.improvement_percent:+.1f}",
                    d.status,
                )
                for d in rows
            ],
            title=f"Profile comparison — total improvement {summary}",
        )


def _has_exclusive(result: ProfileResult) -> bool:
    return any(Domain.PACKAGE in r.exclusive_joules for r in result)
