"""Zero-run float literals → scientific notation (rule R02).

``1000000.0`` becomes ``1e6``; ``12300000.0`` becomes ``1.23e7``.  The
value is bit-identical — only the spelling changes — so this is the one
transform whose rewrite is *purely* textual.

``ast.unparse`` spells a float constant with ``repr``, which always
expands small-exponent floats; the transform therefore swaps the
constant's value for a ``float`` subclass whose ``repr`` *is* the
scientific spelling.  The unparsed source reads ``1e6``, re-parses to
the identical float, and every arithmetic use sees a plain float.
"""

from __future__ import annotations

import ast
import math
from decimal import Decimal

from repro.optimizer.transforms.base import AppliedChange, FixContext, Transform

#: Rewrite only literals whose decimal spelling carries at least this
#: many consecutive zeros (mirrors the R02 detector's threshold).
_MIN_ZEROS = 5


class _SciFloat(float):
    """A float that unparses in scientific notation.

    ``ast.unparse`` writes ``repr(value)`` for float constants; this
    subclass pins that spelling while staying value-identical to the
    original literal.
    """

    __slots__ = ("spelling",)

    def __new__(cls, value: float, spelling: str) -> "_SciFloat":
        self = super().__new__(cls, value)
        self.spelling = spelling
        return self

    def __repr__(self) -> str:
        return self.spelling


def sci_spelling(value: float) -> str | None:
    """Scientific spelling for ``value``, or None when not worthwhile.

    Returns a spelling only when the plain decimal form carries a long
    zero run, the scientific form is strictly shorter, and the new
    text round-trips to the identical float.
    """
    if not isinstance(value, float) or isinstance(value, _SciFloat):
        return None
    if not math.isfinite(value) or value == 0.0:
        return None
    text = repr(value)
    if "e" in text or "E" in text:
        return None  # repr already chose scientific notation
    digits = text.replace("-", "").replace(".", "")
    zeros = "0" * _MIN_ZEROS
    if not (digits.endswith(zeros) or digits.startswith(zeros)):
        return None
    sign, digit_tuple, exponent = Decimal(text).normalize().as_tuple()
    mantissa_digits = "".join(map(str, digit_tuple))
    mantissa = mantissa_digits[0]
    if len(mantissa_digits) > 1:
        mantissa += "." + mantissa_digits[1:]
    sci_exponent = exponent + len(mantissa_digits) - 1
    spelling = f"{'-' if sign else ''}{mantissa}e{sci_exponent}"
    if len(spelling) >= len(text) or float(spelling) != value:
        return None
    return spelling


class SciNotationTransform(Transform):
    transform_id = "T_SCI_NOTATION"
    rule_id = "R02_SCI_NOTATION"
    application_order = 23

    def fix(self, node: ast.Constant, ctx: FixContext) -> AppliedChange | None:
        spelling = sci_spelling(node.value)
        if spelling is None:
            return None
        original = repr(node.value)
        node.value = _SciFloat(node.value, spelling)
        ctx.touch(ctx.statement(node))
        return self._change(node, f"literal {original} → {spelling}")
