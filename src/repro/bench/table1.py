"""Table I reproduction: Java components & suggestions, with measured
Python overheads.

The paper's Table I lists each Java component with its suggestion and
(for five rows) a measured energy overhead.  The reproduction measures
the same overheads in Python: for each registered rule carrying a
micro-pair (:data:`repro.rules.REGISTRY` — so runtime-registered rules
are measured too) the harness runs both forms under the outlier-free
protocol and reports

    overhead% = (E_bad - E_good) / E_good * 100

next to the paper's number and the suggestion text.  ``measure=False``
is the dry-run mode: rows come back with NaN measurements (rendered as
"—") after each pair is verified, which is what CI smoke-checks.  The
dry run needs no numpy: only the measuring run loads the outlier-free
protocol (:mod:`repro.stats`, which is numpy-backed), and on an
interpreter without numpy the two pairs whose forms use it (R03's boxed
scalars, R11's matrix) are named on stderr as unverified while the
table prints unchanged.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.bench.micro import MicroPair
from repro.rapl.backends import RaplBackend, RealClock, SimulatedBackend
from repro.rapl.perf import PerfStat
from repro.views.tables import render_table

if TYPE_CHECKING:
    from repro.stats.protocol import OutlierFreeProtocol


@dataclass(frozen=True)
class Table1Row:
    rule_id: str
    component: str
    suggestion: str
    paper_overhead_percent: float
    paper_exact: bool
    measured_overhead_percent: float
    bad_joules: float
    good_joules: float


def _measure_pair(
    pair: MicroPair, perf: PerfStat, protocol: OutlierFreeProtocol
) -> tuple[float, float]:
    pair.verify()
    bad = protocol.collect(lambda: perf.run_once(pair.bad).package_joules)
    good = protocol.collect(lambda: perf.run_once(pair.good).package_joules)
    return bad.mean, good.mean


def _verify_pair(pair: MicroPair) -> None:
    """Run both forms of ``pair``; a missing numpy skips it with a note."""
    try:
        pair.verify()
    except ModuleNotFoundError as error:
        if error.name != "numpy":
            raise
        print(
            f"table1: {pair.rule_id} not verified: its forms need numpy",
            file=sys.stderr,
        )


def run_table1(
    backend: RaplBackend | None = None,
    repeats: int = 5,
    measure: bool = True,
) -> list[Table1Row]:
    """Measure every registered micro-pair; returns rows in rule order.

    ``measure=False`` still verifies each pair's two forms agree but
    skips the energy harness, leaving NaN in the measured columns — a
    fast structural smoke-check for CI.  Without numpy it skips the
    pairs that need it, with a note on stderr.
    """
    from repro.rules import REGISTRY

    if measure:
        from repro.stats.protocol import OutlierFreeProtocol

        perf = PerfStat(backend or SimulatedBackend(clock=RealClock()))
        protocol = OutlierFreeProtocol(repeats=repeats)
    verify = _verify_pair
    rows: list[Table1Row] = []
    for spec in REGISTRY:
        if spec.micro is None or spec.extension:
            continue
        if measure:
            bad_joules, good_joules = _measure_pair(spec.micro, perf, protocol)
            overhead = (
                (bad_joules - good_joules) / good_joules * 100.0
                if good_joules > 0
                else 0.0
            )
        else:
            verify(spec.micro)
            bad_joules = good_joules = overhead = math.nan
        rows.append(
            Table1Row(
                rule_id=spec.rule_id,
                component=spec.python_component,
                suggestion=spec.python_suggestion,
                paper_overhead_percent=spec.overhead_percent,
                paper_exact=not spec.overhead_is_estimate,
                measured_overhead_percent=overhead,
                bad_joules=bad_joules,
                good_joules=good_joules,
            )
        )
    return rows


def render_table1(rows: list[Table1Row]) -> str:
    """Text table in the paper's Table I layout plus measured column."""
    return render_table(
        headers=(
            "Python Component",
            "Paper Overhead (%)",
            "Measured (%)",
            "Suggestion",
        ),
        rows=[
            (
                row.component,
                f"{row.paper_overhead_percent:,.0f}"
                + ("" if row.paper_exact else " (est.)"),
                (
                    "—"
                    if math.isnan(row.measured_overhead_percent)
                    else f"{row.measured_overhead_percent:+.1f}"
                ),
                row.suggestion,
            )
            for row in rows
        ],
        title="Table I — Java components & suggestions (Python translation)",
        max_col_width=72,
    )
