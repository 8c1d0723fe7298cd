"""Rule detectors: one AST pattern matcher per Table I row (DESIGN.md §4).

The analyzer's rule set is enumerated by :data:`repro.rules.REGISTRY`
(``REGISTRY.detector_classes()``), so rules registered at runtime join
it; this package never imports the registry, so it stays importable
while the registry itself is being assembled.
"""

from repro.analyzer.rules.base import AnalysisContext, Rule
from repro.analyzer.rules.r01_numeric_type import NumericTypeRule
from repro.analyzer.rules.r02_sci_notation import SciNotationRule
from repro.analyzer.rules.r03_boxing import BoxingRule
from repro.analyzer.rules.r04_global_in_loop import GlobalInLoopRule
from repro.analyzer.rules.r05_modulus import ModulusRule
from repro.analyzer.rules.r06_ternary import TernaryRule
from repro.analyzer.rules.r07_short_circuit import ShortCircuitRule
from repro.analyzer.rules.r08_str_concat import StrConcatRule
from repro.analyzer.rules.r09_str_compare import StrCompareRule
from repro.analyzer.rules.r10_array_copy import ArrayCopyRule
from repro.analyzer.rules.r11_traversal import TraversalRule
from repro.analyzer.rules.r12_exception_flow import ExceptionFlowRule
from repro.analyzer.rules.r13_object_churn import ObjectChurnRule
from repro.analyzer.rules.r14_append_loop import AppendLoopRule
from repro.analyzer.rules.r15_range_len import RangeLenRule


__all__ = [
    "AnalysisContext",
    "AppendLoopRule",
    "ArrayCopyRule",
    "BoxingRule",
    "ExceptionFlowRule",
    "GlobalInLoopRule",
    "ModulusRule",
    "NumericTypeRule",
    "ObjectChurnRule",
    "RangeLenRule",
    "Rule",
    "SciNotationRule",
    "ShortCircuitRule",
    "StrCompareRule",
    "StrConcatRule",
    "TernaryRule",
    "TraversalRule",
]
