"""Fix builders, one per auto-fixable rule.

The pipeline is enumerated by :data:`repro.rules.REGISTRY`
(``REGISTRY.transform_classes()``), ordered by each transform's
``application_order``: statement-level splices (string builder, hoists)
run before expression-level rewrites, and the loop swap runs last.
Each transform rewrites only at the nodes its rule's findings anchor.
"""

from repro.optimizer.transforms.base import AppliedChange, Transform
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


__all__ = [
    "AppliedChange",
    "ArrayCopyTransform",
    "FindToInTransform",
    "GlobalHoistTransform",
    "LoopSwapTransform",
    "ModulusToBitmask",
    "RangeLenToEnumerate",
    "RecompileHoistTransform",
    "SciNotationTransform",
    "StringBuilderTransform",
    "TernaryToIfTransform",
    "Transform",
]
