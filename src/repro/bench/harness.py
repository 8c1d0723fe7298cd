"""Plumbing shared by the perf benches (sweep, overhead, ingest,
semantics, chaos).

Each perf bench module exposes ``run_<target>_bench``,
``render_<target>_bench`` and ``DEFAULT_OUTPUT``; the result it returns
exposes ``to_dict()`` (the ``BENCH_<target>.json`` payload) and
``meets_target()`` (the ``--check`` gate).  ``python -m repro.bench``
drives all five through one run → render → write → gate loop, so
timing, JSON output and gating live here rather than in each bench.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, TypeVar

T = TypeVar("T")


def default_project_dir() -> Path:
    """This repo's own source tree: the installed ``repro`` package."""
    import repro

    return Path(repro.__file__).resolve().parent


def best_of(repeats: int, fn: Callable[[], T]) -> tuple[float, T]:
    """Call ``fn`` ``max(1, repeats)`` times; returns the fastest wall
    time in seconds and the last call's return value."""
    best = float("inf")
    perf_counter = time.perf_counter
    for _ in range(max(1, repeats)):
        start = perf_counter()
        value = fn()
        best = min(best, perf_counter() - start)
    return best, value


def write_bench_json(result, output: str | Path) -> Path:
    """Write ``result.to_dict()`` as indented JSON to ``output``."""
    output = Path(output)
    output.write_text(
        json.dumps(result.to_dict(), indent=2) + "\n", encoding="utf-8"
    )
    return output
