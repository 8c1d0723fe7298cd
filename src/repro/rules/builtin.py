"""The built-in catalog: Table I (and the future-work extensions) as specs.

This module is *the* enumeration of PEPO's shipped rules.  Each
``RuleSpec`` here bundles what used to live in four hand-synced places:
the suggestion-pool text, the analyzer rule list, the transform
pipeline and the micro-benchmark list.  All four are read from this
catalog through :data:`repro.rules.REGISTRY`:
``REGISTRY.detector_classes()``, ``REGISTRY.transform_classes()`` and
``REGISTRY.micro_pairs()``, with findings reading their suggestion
text from the same specs.

The Java component/suggestion strings are the paper's Table I rows
verbatim; the Python strings are DESIGN.md §4's translations.  Overhead
percentages come from :class:`repro.rapl.model.OperationCostTable`
(paper-exact where the paper gives a number, flagged estimates where it
is qualitative).

Import discipline: this module imports detector and transform classes
from their *individual* modules.  Importing any of those executes the
parent package ``__init__`` (``repro.analyzer``, ``repro.optimizer``,
``repro.bench``), so none of those packages may require ``repro.rules``
at module-import time — they reach the registry lazily instead.
"""

from __future__ import annotations

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
from repro.analyzer.rules.r16_dead_store import DeadStoreRule
from repro.analyzer.rules.r17_invariant_recompute import InvariantRecomputeRule
from repro.analyzer.rules.r18_pure_memoize import PureMemoizeRule
from repro.bench.micro import MicroPair, builtin_micro_pairs
from repro.optimizer.transforms.t_array_copy import ArrayCopyTransform
from repro.optimizer.transforms.t_global_hoist import GlobalHoistTransform
from repro.optimizer.transforms.t_modulus import ModulusToBitmask
from repro.optimizer.transforms.t_object_hoist import RecompileHoistTransform
from repro.optimizer.transforms.t_range_len import RangeLenToEnumerate
from repro.optimizer.transforms.t_sci_notation import SciNotationTransform
from repro.optimizer.transforms.t_str_compare import FindToInTransform
from repro.optimizer.transforms.t_str_concat import StringBuilderTransform
from repro.optimizer.transforms.t_ternary import TernaryToIfTransform
from repro.optimizer.transforms.t_traversal import LoopSwapTransform
from repro.rapl.model import OperationCostTable
from repro.rules.registry import RuleRegistry
from repro.rules.spec import RuleSpec


def build_default_registry() -> RuleRegistry:
    """Assemble the shipped registry: R01–R13 plus extensions R14–R18."""
    costs = OperationCostTable()
    micros: dict[str, MicroPair] = {
        pair.rule_id: pair for pair in builtin_micro_pairs()
    }

    def spec(
        rule_id: str,
        java_component: str,
        java_suggestion: str,
        python_component: str,
        python_suggestion: str,
        detector,
        transform=None,
        *,
        extension: bool = False,
    ) -> RuleSpec:
        return RuleSpec(
            rule_id=rule_id,
            python_component=python_component,
            python_suggestion=python_suggestion,
            detector=detector,
            transform=transform,
            micro=micros.get(rule_id),
            overhead_percent=costs.cost(rule_id).overhead_percent,
            overhead_is_estimate=costs.is_estimated(rule_id),
            java_component=java_component,
            java_suggestion=java_suggestion,
            extension=extension,
            builtin=True,
        )

    return RuleRegistry(
        (
            spec(
                "R01_NUMERIC_TYPE",
                "Primitive data types",
                "int is the most energy-efficient primitive data type. "
                "Replace if possible.",
                "Numeric types",
                "Built-in int is the most energy-efficient numeric type; avoid "
                "Decimal/Fraction and float-typed counters where int semantics "
                "suffice.",
                NumericTypeRule,
            ),
            spec(
                "R02_SCI_NOTATION",
                "Scientific notation",
                "Scientific notation results in lower energy consumption of "
                "decimal numbers.",
                "Numeric literals",
                "Write large decimal literals in scientific notation (1e6, 2.5e9): "
                "cheaper to read, parse, and review than strings of zeros.",
                SciNotationRule,
                SciNotationTransform,
            ),
            spec(
                "R03_BOXING",
                "Wrapper classes",
                "Integer Wrapper class object is the most energy-efficient. "
                "Replace if possible.",
                "Boxed scalars",
                "Avoid constructing numpy scalar objects (np.float64(x), "
                "np.int64(x)) one at a time in hot code; use plain Python "
                "numbers or vectorize.",
                BoxingRule,
            ),
            spec(
                "R04_GLOBAL_IN_LOOP",
                "Static keyword",
                "static keyword consumes up to 17,700% more energy. Avoid if "
                "possible.",
                "Module-global access in loops",
                "Reading a module-level global (LOAD_GLOBAL) inside a hot loop "
                "is far costlier than a local (LOAD_FAST); bind it to a local "
                "before the loop.",
                GlobalInLoopRule,
                GlobalHoistTransform,
            ),
            spec(
                "R05_MODULUS",
                "Arithmetic operators",
                "Modulus arithmetic operator consumes up to 1,620% more energy "
                "than other arithmetic operators.",
                "Modulus operator",
                "Modulus is the most expensive arithmetic operator; for "
                "power-of-two divisors use a bitmask (x & (n-1)), otherwise "
                "hoist or restructure.",
                ModulusRule,
                ModulusToBitmask,
            ),
            spec(
                "R06_TERNARY",
                "Ternary operator",
                "Ternary operator consumes up to 37% more energy than "
                "if-then-else statement.",
                "Conditional expression",
                "A conditional expression (x if c else y) in a hot loop costs "
                "more than an if/else statement; prefer the statement form in "
                "hot paths.",
                TernaryRule,
                TernaryToIfTransform,
            ),
            spec(
                "R07_SHORT_CIRCUIT",
                "Short circuit operator",
                "Put most common case first for lower energy consumption.",
                "and/or operand order",
                "Order short-circuit operands so the cheap, most-common test "
                "runs first; expensive calls belong after cheap guards.",
                ShortCircuitRule,
            ),
            spec(
                "R08_STR_CONCAT",
                "String concatenation operator",
                "StringBuilder append method consumes much lower energy than "
                "String concatenation operator.",
                "String building in loops",
                "Accumulating with s += piece in a loop re-copies the string "
                "each iteration; append parts to a list and ''.join once.",
                StrConcatRule,
                StringBuilderTransform,
            ),
            spec(
                "R09_STR_COMPARE",
                "String comparison",
                "String compareTo method consumes up to 33% more energy than "
                "the String equals method.",
                "String comparison",
                "Use == / in for string equality and membership; three-way "
                "compares (locale.strcoll, find() != -1) cost more than the "
                "direct test.",
                StrCompareRule,
                FindToInTransform,
            ),
            spec(
                "R10_ARRAY_COPY",
                "Arrays copy",
                "System.arraycopy() is the most energy-efficient way to copy "
                "Arrays.",
                "Array/list copy",
                "Copy sequences in bulk (dst[:] = src, list(src), "
                "numpy.copyto) instead of an element-by-element Python loop.",
                ArrayCopyRule,
                ArrayCopyTransform,
            ),
            spec(
                "R11_TRAVERSAL",
                "Array traversal",
                "Two-dimensional Array column traversal result in up to 793% "
                "more energy.",
                "2-D traversal order",
                "Traverse 2-D data row-major (outer loop over the first "
                "index); column-major order defeats the cache on C-ordered "
                "arrays.",
                TraversalRule,
                LoopSwapTransform,
            ),
            spec(
                "R12_EXCEPTION_FLOW",
                "Exceptions",
                "Avoid using exceptions for ordinary control flow.",
                "Exceptions in hot loops",
                "An exception raised per iteration is far costlier than a "
                "conditional test; keep try/except for exceptional cases, not "
                "expected ones.",
                ExceptionFlowRule,
            ),
            spec(
                "R13_OBJECT_CHURN",
                "Objects",
                "Avoid creating unnecessary objects.",
                "Object construction in loops",
                "Hoist loop-invariant constructions (objects, re.compile) out "
                "of the loop; per-iteration allocation churns the allocator "
                "and the GC.",
                ObjectChurnRule,
                RecompileHoistTransform,
            ),
            spec(
                "R14_APPEND_LOOP",
                "(extension)",
                "—",
                "Append loops",
                "Replace a transforming append loop with a list comprehension; "
                "the loop body then runs without a per-iteration method call.",
                AppendLoopRule,
                extension=True,
            ),
            spec(
                "R15_RANGE_LEN",
                "(extension)",
                "—",
                "range(len()) indexing",
                "Iterate the sequence directly (or enumerate) instead of "
                "indexing through range(len(seq)).",
                RangeLenRule,
                RangeLenToEnumerate,
                extension=True,
            ),
            spec(
                "R16_DEAD_STORE",
                "(extension)",
                "—",
                "Dead stores",
                "A pure value assigned but never read on any path is wasted "
                "computation; delete the statement or use the result.",
                DeadStoreRule,
                extension=True,
            ),
            spec(
                "R17_INVARIANT_RECOMPUTE",
                "(extension)",
                "—",
                "Loop-invariant recomputation",
                "An expression recomputed each iteration from operands that "
                "never change inside the loop should be hoisted above it.",
                InvariantRecomputeRule,
                extension=True,
            ),
            spec(
                "R18_PURE_MEMOIZE",
                "(extension)",
                "—",
                "Pure calls in hot loops",
                "A side-effect-free call with loop-invariant arguments "
                "repeats identical work every iteration; hoist or memoize "
                "it (functools.lru_cache).",
                PureMemoizeRule,
                extension=True,
            ),
        )
    )
