"""Plumbing shared by the perf benches (sweep, overhead, ingest,
semantics, chaos).

Each perf bench module exposes ``run_<target>_bench``,
``render_<target>_bench`` and ``DEFAULT_OUTPUT``; the result it returns
exposes ``to_dict()`` (the ``BENCH_<target>.json`` payload) and
``meets_target()`` (the ``--check`` gate).  ``python -m repro.bench``
drives all five through one run → render → write → gate loop, so
timing, JSON output and gating live here rather than in each bench.
Benches whose baseline is an older engine (sweep, overhead) take it
from git history through :func:`reference_tree`.
"""

from __future__ import annotations

import io
import json
import subprocess
import tempfile
import time
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, TypeVar

T = TypeVar("T")

#: The checkout this module lives in (``<root>/src/repro/bench``).
REPO_ROOT = Path(__file__).resolve().parents[3]


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


@contextmanager
def reference_tree(bench: str, commit: str) -> Iterator[Path]:
    """Extract ``commit``'s ``src/repro`` into a temporary directory.

    Yields the directory holding the extracted ``repro`` package, for a
    ``python -I`` child to put first on ``sys.path``; it is removed on
    exit.  Raises :class:`SystemExit` with one line naming ``bench``
    and ``commit`` when the commit cannot be read (a shallow clone, a
    source tarball, no ``git``), so no bench passes without its
    reference.
    """
    try:
        archive = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "archive", "--format=zip",
             "-0", "--prefix=repro/", f"{commit}:src/repro"],
            capture_output=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        raise SystemExit(
            f"pepo bench {bench}: cannot read reference commit {commit}; "
            f"the {bench} bench needs the repository's git history (not "
            "a shallow clone or a source tarball)"
        ) from None
    with tempfile.TemporaryDirectory(prefix=f"pepo-bench-{bench}-") as tmp:
        tree = Path(tmp).resolve()
        with zipfile.ZipFile(io.BytesIO(archive.stdout)) as files:
            files.extractall(tree)
        yield tree
