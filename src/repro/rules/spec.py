"""``RuleSpec`` — one declarative record per energy rule.

The paper's core artifact is a *catalog*: each Table I row couples a
detected component, a suggestion, and a measured overhead.  A
:class:`RuleSpec` is that row as data — paper metadata and suggestion
text (absorbing the old ``PoolEntry``), the detector class, the
optional mechanical transform, the optional micro-benchmark pair, and
the paper's overhead number — so the analyzer, optimizer, benches and
views all read the same artifact instead of four hand-synced lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.analyzer.rules.base import Rule
    from repro.bench.micro import MicroPair
    from repro.optimizer.transforms.base import Transform


@dataclass(frozen=True)
class RuleSpec:
    """Everything one energy rule is, in one place.

    Parameters
    ----------
    rule_id:
        Canonical id (``R05_MODULUS``-style for built-ins; third-party
        rules pick any unique id).
    python_component / python_suggestion:
        The component label and suggestion text shown to the developer
        (the Fig. 5 view and ``pepo suggest``).
    detector:
        The :class:`~repro.analyzer.rules.base.Rule` subclass that
        finds the pattern.  Required — a rule that cannot detect
        anything has no reason to exist.  Its ``triggers`` class
        attribute is the rule's cold-sweep pre-filter contract, which
        the registry validates at registration.
    transform:
        Optional :class:`~repro.optimizer.transforms.base.Transform`
        subclass that mechanically fixes the pattern.  Rules without
        one surface as "detected but not auto-fixable" in the
        optimizer.
    micro:
        Optional :class:`~repro.bench.micro.MicroPair` measuring the
        bad-vs-good idiom for the Table I bench.
    overhead_percent / overhead_is_estimate:
        The paper's energy overhead of the inefficient form (Table I /
        Section VII), or a conservative estimate when the paper is
        only qualitative.
    java_component / java_suggestion:
        The original Table I row text (empty for extensions and
        third-party rules).
    extension:
        Paper future-work rule (off by default in the analyzer).
    builtin:
        Ships with PEPO; third-party specs leave this ``False`` so the
        Table I views stay exactly the paper's catalog.
    """

    rule_id: str
    python_component: str
    python_suggestion: str
    detector: "type[Rule] | None" = None
    transform: "type[Transform] | None" = None
    micro: "MicroPair | None" = None
    overhead_percent: float = 0.0
    overhead_is_estimate: bool = True
    java_component: str = ""
    java_suggestion: str = ""
    extension: bool = False
    builtin: bool = field(default=False)

    @property
    def has_detector(self) -> bool:
        return self.detector is not None

    @property
    def has_transform(self) -> bool:
        return self.transform is not None

    @property
    def has_micro(self) -> bool:
        return self.micro is not None
