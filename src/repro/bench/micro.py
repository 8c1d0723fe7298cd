"""Micro-benchmark pairs for Table I: each rule's bad vs good idiom.

Each pair does the *same observable work* two ways; the Table I bench
measures both under the energy harness and reports the overhead of the
inefficient form.  Workload sizes are tuned for ~5-30 ms per call so a
10-repeat protocol stays under a second per rule.

Pairs are **self-contained**: every constant a workload needs (rates,
precompiled patterns, haystacks, matrices) is bound inside the pair's
factory and recorded in :attr:`MicroPair.params`, never read from this
module's globals — so a pair survives being relocated, pickled by id,
or registered from a third-party module.  The single deliberate
exception is R04, whose *point* is a per-iteration module-global read:
its workload is compiled into a dedicated namespace so the global it
reads belongs to the pair, not to this file.

This module defines the built-in pairs; :data:`repro.rules.REGISTRY`
enumerates them (``REGISTRY.micro_pairs()``) alongside any pairs
registered at runtime.
"""

from __future__ import annotations

import functools
import re
import sys
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Callable, Mapping


@dataclass(frozen=True)
class MicroPair:
    """One Table I row's workload: inefficient vs efficient form.

    ``bad`` and ``good`` are zero-argument callables; ``params``
    records the constants they were built with (for display and for
    rebuilding a pair at a different size).
    """

    rule_id: str
    label: str
    bad: Callable[[], object]
    good: Callable[[], object]
    params: Mapping[str, object] = field(default_factory=dict)

    def verify(self) -> None:
        """Both forms must produce the same answer or the pair is void."""
        assert_equalish(self.bad(), self.good())


def assert_equalish(a: object, b: object) -> None:
    if isinstance(a, float) and isinstance(b, float):
        if abs(a - b) > 1e-6 * max(1.0, abs(a), abs(b)):
            raise AssertionError(f"pair results diverge: {a} vs {b}")
        return
    # Two arrays mean numpy is loaded; nothing else needs it here.
    np = sys.modules.get("numpy")
    if np and isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        np.testing.assert_allclose(a, b, rtol=1e-6)
        return
    if a != b:
        raise AssertionError(f"pair results diverge: {a!r} vs {b!r}")


# -- pair factories ---------------------------------------------------------
#
# One factory per rule; each closes over (or exec-binds) its own
# constants and returns a finished MicroPair.


def _pair_r01(n: int = 4000) -> MicroPair:
    """R01: Decimal vs int arithmetic."""

    def bad() -> float:
        total = Decimal(0)
        for i in range(n):
            total += Decimal(i)
        return float(total)

    def good() -> float:
        total = 0
        for i in range(n):
            total += i
        return float(total)

    return MicroPair(
        "R01_NUMERIC_TYPE", "int vs Decimal accumulation", bad, good,
        params={"n": n},
    )


def _pair_r02(width: int = 300, compiles: int = 20) -> MicroPair:
    """R02: literal parsing (interpreter-time effect via repeated parse)."""
    expanded = "x = [" + ",".join(["1000000.0"] * width) + "]"
    scientific = "x = [" + ",".join(["1e6"] * width) + "]"

    def run(text: str) -> int:
        for _ in range(compiles):
            code = compile(text, "<lit>", "exec")
        namespace: dict = {}
        exec(code, namespace)
        return len(namespace["x"])

    return MicroPair(
        "R02_SCI_NOTATION", "expanded vs scientific literals",
        lambda: run(expanded), lambda: run(scientific),
        params={"width": width, "compiles": compiles},
    )


def _pair_r03(n: int = 4000) -> MicroPair:
    """R03: boxed numpy scalars vs plain floats."""

    def bad() -> float:
        import numpy as np

        total = np.float64(0.0)
        for i in range(n):
            total = total + np.float64(i) * np.float64(0.5)
        return float(total)

    def good() -> float:
        total = 0.0
        for i in range(n):
            total += i * 0.5
        return total

    return MicroPair(
        "R03_BOXING", "boxed numpy scalars vs floats", bad, good,
        params={"n": n},
    )


#: R04's workloads live in their own namespace so the module-global the
#: bad form reads each iteration travels *with the pair*.
_R04_SOURCE = """\
def bad(n={n}):
    total = 0.0
    for _ in range(n):
        total += RATE
    return total

def good(n={n}):
    rate = RATE
    total = 0.0
    for _ in range(n):
        total += rate
    return total
"""


def _pair_r04(n: int = 30000, rate: float = 1.0000001) -> MicroPair:
    """R04: global read in loop vs local binding."""
    namespace: dict = {"RATE": rate}
    exec(compile(_R04_SOURCE.format(n=n), "<r04>", "exec"), namespace)
    return MicroPair(
        "R04_GLOBAL_IN_LOOP", "global vs local read in loop",
        namespace["bad"], namespace["good"],
        params={"n": n, "rate": rate},
    )


def _pair_r05(n: int = 30000) -> MicroPair:
    """R05: modulus vs bitmask."""

    def bad() -> int:
        hits = 0
        for i in range(n):
            if i % 8 == 0:
                hits += 1
        return hits

    def good() -> int:
        hits = 0
        for i in range(n):
            if i & 7 == 0:
                hits += 1
        return hits

    return MicroPair(
        "R05_MODULUS", "modulus vs bitmask", bad, good, params={"n": n}
    )


def _pair_r06(n: int = 30000) -> MicroPair:
    """R06: ternary vs if/else."""

    def bad() -> int:
        total = 0
        for i in range(n):
            total += 1 if i & 1 else 2
        return total

    def good() -> int:
        total = 0
        for i in range(n):
            if i & 1:
                total += 1
            else:
                total += 2
        return total

    return MicroPair(
        "R06_TERNARY", "ternary vs if/else in loop", bad, good,
        params={"n": n},
    )


def _pair_r07(n: int = 8000) -> MicroPair:
    """R07: expensive-first vs cheap-first short circuit."""

    def expensive_check(i: int) -> bool:
        return sum(divmod(i, 7)) > 3

    def bad() -> int:
        hits = 0
        for i in range(n):
            # The call runs every iteration though the flag usually decides.
            if expensive_check(i) and i & 1:
                hits += 1
        return hits

    def good() -> int:
        hits = 0
        for i in range(n):
            if i & 1 and expensive_check(i):
                hits += 1
        return hits

    return MicroPair(
        "R07_SHORT_CIRCUIT", "expensive-first vs cheap-first", bad, good,
        params={"n": n},
    )


def _pair_r08(n: int = 4000) -> MicroPair:
    """R08: string += vs join."""

    def bad() -> int:
        out = ""
        for i in range(n):
            out += str(i & 15)
        return len(out)

    def good() -> int:
        parts = []
        for i in range(n):
            parts.append(str(i & 15))
        return len("".join(parts))

    return MicroPair(
        "R08_STR_CONCAT", "string += vs list+join", bad, good,
        params={"n": n},
    )


def _pair_r09(n: int = 2000, haystack_size: int = 500) -> MicroPair:
    """R09: find() sentinel vs in."""
    haystack = ",".join(str(i) for i in range(haystack_size))

    def bad() -> int:
        hits = 0
        for i in range(n):
            if haystack.find(str(i & 255)) != -1:
                hits += 1
        return hits

    def good() -> int:
        hits = 0
        for i in range(n):
            if str(i & 255) in haystack:
                hits += 1
        return hits

    return MicroPair(
        "R09_STR_COMPARE", "find() sentinel vs in", bad, good,
        params={"n": n, "haystack_size": haystack_size},
    )


def _pair_r10(size: int = 20000) -> MicroPair:
    """R10: element copy loop vs slice copy."""
    src = list(range(size))

    def bad() -> int:
        dst = [0] * len(src)
        for i in range(len(src)):
            dst[i] = src[i]
        return len(dst)

    def good() -> int:
        dst = [0] * len(src)
        dst[:] = src
        return len(dst)

    return MicroPair(
        "R10_ARRAY_COPY", "element copy vs slice copy", bad, good,
        params={"size": size},
    )


def _pair_r11(side: int = 400) -> MicroPair:
    """R11: column-major vs row-major traversal.

    The matrix is built on first use, so importing the pairs needs no
    numpy; :meth:`MicroPair.verify` runs both forms before any timing.
    """

    @functools.cache
    def matrix():
        import numpy as np

        return np.arange(side * side, dtype=np.float64).reshape(side, side)

    def bad() -> float:
        m = matrix()
        total = 0.0
        for j in range(m.shape[1]):
            total += float(m[:, j].sum())
        return total

    def good() -> float:
        m = matrix()
        total = 0.0
        for i in range(m.shape[0]):
            total += float(m[i, :].sum())
        return total

    return MicroPair(
        "R11_TRAVERSAL", "column vs row traversal", bad, good,
        params={"side": side},
    )


def _pair_r12(n: int = 8000, stride: int = 4) -> MicroPair:
    """R12: exception control flow vs conditional."""
    sparse = {i: i for i in range(0, 20000, stride)}

    def bad() -> int:
        total = 0
        for i in range(n):
            try:
                total += sparse[i]
            except KeyError:
                pass
        return total

    def good() -> int:
        total = 0
        for i in range(n):
            value = sparse.get(i)
            if value is not None:
                total += value
        return total

    return MicroPair(
        "R12_EXCEPTION_FLOW", "exception vs conditional", bad, good,
        params={"n": n, "stride": stride},
    )


def _pair_r13(repeat: int = 200) -> MicroPair:
    """R13: re.compile in loop vs hoisted."""
    lines = ["xxabbbcyy", "no match here", "abc"] * repeat
    precompiled = re.compile("ab+c")

    def bad() -> int:
        hits = 0
        for line in lines:
            pattern = re.compile("ab+c")
            if pattern.search(line):
                hits += 1
        return hits

    def good() -> int:
        hits = 0
        pattern = precompiled
        for line in lines:
            if pattern.search(line):
                hits += 1
        return hits

    return MicroPair(
        "R13_OBJECT_CHURN", "re.compile in loop vs hoisted", bad, good,
        params={"repeat": repeat, "pattern": "ab+c"},
    )


#: The built-in pairs, consumed by ``repro.rules.builtin`` when the
#: default registry is assembled.  In Table I rule order.
_BUILTIN_PAIRS: tuple[MicroPair, ...] = (
    _pair_r01(),
    _pair_r02(),
    _pair_r03(),
    _pair_r04(),
    _pair_r05(),
    _pair_r06(),
    _pair_r07(),
    _pair_r08(),
    _pair_r09(),
    _pair_r10(),
    _pair_r11(),
    _pair_r12(),
    _pair_r13(),
)


def builtin_micro_pairs() -> tuple[MicroPair, ...]:
    """The shipped pairs, for registry assembly.

    Measure through ``REGISTRY.micro_pairs()``, which also enumerates
    pairs registered at runtime.
    """
    return _BUILTIN_PAIRS
