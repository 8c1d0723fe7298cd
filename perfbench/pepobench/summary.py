"""Order statistics and the machine/input fingerprint of a result."""

from __future__ import annotations

import os
import platform
import statistics
import sys


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float, int]:
    """``(percentile, value, samples)`` for the highest percentile that
    still has at least ten samples beyond it.

    With ``n`` sorted samples the value at rank ``n - 11`` (0-based) has
    exactly ten samples above it; its percentile is ``100 * (n - 10) / n``.
    Fewer than eleven samples have no such percentile: the maximum is
    returned as the 100th percentile, and ``samples`` says why.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return 100.0, float(ordered[-1]), n
    return 100.0 * (n - 10) / n, float(ordered[n - 11]), n


def machine_fingerprint() -> dict:
    from repro.sweep import available_cpus

    return {
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "available_cpus": available_cpus(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def comparable(a: dict, b: dict) -> list[str]:
    """Fingerprint fields on which two results differ (empty: comparable).

    Results are comparable only for the same workload, seed, inputs and
    machine; the program under test is what may differ.
    """
    fa, fb = a["fingerprint"], b["fingerprint"]
    keys = sorted(set(fa) | set(fb))
    return [key for key in keys if fa.get(key) != fb.get(key)]
