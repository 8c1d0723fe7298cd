"""Static energy-suggestion analyzer (the JEPO optimizer's rule engine).

JEPO "analyzes each line of the code and checks for a specific pattern
of code to generate various suggestions" for 11 Java component
categories (Table I) plus exceptions and objects.  This package is the
Python translation:

* :mod:`repro.analyzer.findings` — the finding record and severities.
* :mod:`repro.analyzer.rules` — one module per rule, AST-based.
* :mod:`repro.analyzer.engine` — runs all rules over sources, files and
  project trees; the dynamic (watch) mode behind the paper's Fig. 2.
"""

from repro.analyzer.engine import Analyzer, DynamicAnalyzer, analyze_source
from repro.analyzer.findings import Finding, Severity
from repro.analyzer.report import FindingsSummary
from repro.analyzer.suppress import apply_suppressions, parse_suppressions

__all__ = [
    "Analyzer",
    "DynamicAnalyzer",
    "Finding",
    "FindingsSummary",
    "Severity",
    "analyze_source",
    "apply_suppressions",
    "parse_suppressions",
]
