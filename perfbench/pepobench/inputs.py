"""Seeded inputs for every workload.

All inputs come from ``--seed`` alone: the same seed gives the same
sub-project split, edit script, keystroke script and generated project.
The program under test only ever sees the generated files.

* Source files come from the running interpreter's own standard
  library, skipping ``test/``, ``idlelib/`` and ``lib2to3/`` (test data
  and deliberately broken sources).  It is real code, fixed for each
  interpreter, and needs no download; PEPO's own ``src/repro`` is not
  used because it changes with every change to the program.
* Each workload uses a fixed, size-stratified pool of those files and
  the seed arranges it (which files share a sub-project, sweep order,
  which file each edit hits and what it adds).  Per-file cost varies
  about fivefold across the stdlib, so a seeded *choice* of files
  measured mostly which files the seed drew: across seeds, random
  draws spread 50 to 80% in edit latency.
* The profiled project is a generated call graph whose total call count
  the generator computes exactly, so the profiler's record count has an
  oracle.
"""

from __future__ import annotations

import hashlib
import random
import sysconfig
from dataclasses import dataclass
from pathlib import Path

#: Stdlib directories never drawn from.
SKIP_DIRS = frozenset(
    {"test", "tests", "idlelib", "lib2to3", "site-packages", "__pycache__"}
)

#: Salts that keep one seed's random streams independent.
COLD_SALT = 0x5EED_C01D
EDIT_SALT = 0x5EED_ED17
GRAPH_SALT = 0x5EED_9A4F
#: Levels of the generated call graph, and functions on each level.
GRAPH_LEVELS = 4
GRAPH_WIDTH = 6


def count_loc(source: str) -> int:
    """Non-blank, non-comment-only lines (the repo's LOC convention)."""
    return sum(
        1
        for line in source.splitlines()
        if line.strip() and not line.strip().startswith("#")
    )


@dataclass(frozen=True)
class SourceFile:
    """One drawn stdlib file: where it came from and its contents."""

    origin: str  # stdlib-relative posix path
    text: str
    loc: int

    @property
    def flat_name(self) -> str:
        """A unique flat file name for the origin path."""
        return self.origin.replace("/", "__")


def stdlib_root() -> Path:
    return Path(sysconfig.get_paths()["stdlib"])


def stdlib_files() -> list[str]:
    """Eligible stdlib-relative paths, sorted (the draw's population)."""
    root = stdlib_root()
    out = []
    for path in root.rglob("*.py"):
        relative = path.relative_to(root)
        if any(part in SKIP_DIRS for part in relative.parts[:-1]):
            continue
        out.append(relative.as_posix())
    out.sort()
    return out


def load_source(origin: str) -> SourceFile | None:
    """Read one stdlib file; ``None`` when it is not UTF-8 or not valid
    Python for this interpreter (such a file would make every op fail
    the same way, which measures nothing)."""
    import ast

    try:
        text = (stdlib_root() / origin).read_bytes().decode("utf-8")
        ast.parse(text)
    except (OSError, UnicodeDecodeError, SyntaxError, ValueError):
        return None
    return SourceFile(origin=origin, text=text, loc=count_loc(text))


def stratified_pool(count: int, phase: float) -> list[SourceFile]:
    """``count`` eligible stdlib files spread evenly over the size ranks.

    Files are ranked by (LOC, path) and the pool takes the file at rank
    ``(i + phase) * N / count`` for each ``i``, so it has the stdlib's
    own mix of small, median and large modules.  The pool depends only
    on the interpreter; ``phase`` keeps two workloads' pools apart.
    Files that are not UTF-8 or do not parse are skipped (they would
    make every op fail the same way, which measures nothing).
    """
    ranked = []
    for origin in stdlib_files():
        try:
            text = (stdlib_root() / origin).read_bytes().decode("utf-8")
        except (OSError, UnicodeDecodeError):
            continue
        loc = count_loc(text)
        if loc:
            ranked.append((loc, origin))
    ranked.sort()
    pool = []
    for i in range(count):
        source = load_source(ranked[int((i + phase) * len(ranked) / count)][1])
        if source is not None:
            pool.append(source)
    return pool


def deal_subprojects(
    seed: int, pool: list[SourceFile], count: int
) -> list[list[SourceFile]]:
    """Deal ``pool`` into ``count`` sub-projects, one size tier at a time.

    Files are taken largest first in tiers of ``count``, and the seed
    decides which sub-project gets which file of each tier.  Every
    sub-project so gets one of the largest files, which sets a parallel
    sweep's straggler time, and a like mix of smaller ones; the seed
    changes which files share a sub-project without changing how evenly
    the work splits.
    """
    ordered = sorted(pool, key=lambda s: (-s.loc, s.origin))
    rng = random.Random(seed ^ COLD_SALT)
    subprojects: list[list[SourceFile]] = [[] for _ in range(count)]
    for start in range(0, len(ordered), count):
        slots = list(range(count))
        rng.shuffle(slots)
        for source, slot in zip(ordered[start : start + count], slots):
            subprojects[slot].append(source)
    return [sp for sp in subprojects if sp]


def write_project(directory: Path, sources: list[SourceFile]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for source in sources:
        (directory / source.flat_name).write_text(source.text, encoding="utf-8")


def digest_texts(named_texts) -> str:
    """sha256 over (name, text) pairs in the given order."""
    h = hashlib.sha256()
    for name, text in named_texts:
        h.update(name.encode("utf-8"))
        h.update(b"\0")
        h.update(text.encode("utf-8", "surrogatepass"))
        h.update(b"\0")
    return h.hexdigest()


# -- edit-loop scripts ---------------------------------------------------


@dataclass(frozen=True)
class Edit:
    """Append one small function to one file of the edit-loop project."""

    file_index: int
    snippet: str


def edit_script(seed: int, files: int, count: int) -> list[Edit]:
    """``count`` seeded edits.

    Targets run through a fresh seeded permutation of the files every
    ``files`` edits, so any ``files`` consecutive edits touch each file
    once.  Each snippet is unique, so every edit is a cache miss, and
    holds a string-concatenation loop the analyzer flags, so every edit
    changes the findings.
    """
    rng = random.Random(seed ^ EDIT_SALT)
    targets: list[int] = []
    while len(targets) < count:
        cycle = list(range(files))
        rng.shuffle(cycle)
        targets.extend(cycle)
    out = []
    for index in range(count):
        repeat = rng.randint(1, 9)
        sep = rng.choice(["", "-", ",", ";"])
        snippet = (
            f"\n\ndef _bench_edit_{index}(items):\n"
            f"    out = ''\n"
            f"    for item in items:\n"
            f"        out += str(item) * {repeat} + {sep!r}\n"
            f"    return out\n"
        )
        out.append(Edit(file_index=targets[index], snippet=snippet))
    return out


def keystroke_script(seed: int, index: int) -> list[str]:
    """Buffer suffixes typed after edit ``index``, one keystroke each.

    Typing ``name = value`` passes through a buffer that does not parse
    (``name =``), which the dynamic analyzer must keep answering from
    its last good state.
    """
    rng = random.Random((seed ^ EDIT_SALT ^ 2) * 1_000_003 + index)
    name = rng.choice(["total", "count", "limit", "ratio"]) + str(index)
    value = str(rng.randint(10, 99))
    return [f"\n{name}", f"\n{name} =", f"\n{name} = {value}"]


# -- profile-history project -------------------------------------------


@dataclass(frozen=True)
class GeneratedProject:
    """A single-module call graph with an exactly known call count."""

    source: str
    calls: int  # function activations of one run of main()
    functions: int
    #: (qualified name, activations per run) for every function.
    activations: tuple[tuple[str, int], ...] = ()


def generate_callgraph(seed: int, target_calls: int) -> GeneratedProject:
    """A seeded layered DAG of small functions.

    Each function calls one or two functions of the next level, each a
    seeded one or two times; ``main`` calls every top-level function
    once per iteration, for as many iterations as bring the run closest
    to ``target_calls`` activations.  The activation count is computed
    from the graph, never measured.
    """
    levels, width = GRAPH_LEVELS, GRAPH_WIDTH
    rng = random.Random(seed ^ GRAPH_SALT)
    functions = levels * width
    edges: list[list[tuple[int, int]]] = []
    for i in range(functions):
        level = i // width
        if level == levels - 1:
            edges.append([])
            continue
        below = list(range((level + 1) * width, (level + 2) * width))
        children = sorted(rng.sample(below, rng.randint(1, 2)))
        edges.append([(c, rng.randint(1, 2)) for c in children])
    calls = [0] * functions
    for i in reversed(range(functions)):
        calls[i] = 1 + sum(times * calls[c] for c, times in edges[i])
    per_iteration = sum(calls[:width])
    iterations = max(1, round((target_calls - 1) / per_iteration))
    activations = [iterations if i < width else 0 for i in range(functions)]
    for i in range(functions):
        for child, times in edges[i]:
            activations[child] += times * activations[i]
    lines = []
    for i in range(functions):
        op = rng.choice(["+", "^", "*"])
        constant = rng.randint(2, 17)
        lines.append(f"def f{i}(x):")
        lines.append(f"    y = (x {op} {constant}) & 0xFFFF")
        for child, times in edges[i]:
            if times == 1:
                lines.append(f"    y += f{child}(y)")
            else:
                lines.append(f"    for _ in range({times}):")
                lines.append(f"        y += f{child}(y)")
        lines.append("    return y & 0xFFFF")
        lines.append("")
    lines.append("def main():")
    lines.append("    acc = 0")
    lines.append(f"    for i in range({iterations}):")
    for top in range(width):
        lines.append(f"        acc ^= f{top}(i)")
    lines.append("    return acc")
    lines.append("")
    lines.append('if __name__ == "__main__":')
    lines.append("    main()")
    return GeneratedProject(
        source="\n".join(lines) + "\n",
        calls=1 + iterations * per_iteration,
        functions=functions + 1,
        activations=tuple(
            (f"__main__.f{i}", n) for i, n in enumerate(activations)
        )
        + (("__main__.main", 1),),
    )


def history_result_txt(
    project: GeneratedProject, seed: int, run: int, runs: int
) -> str:
    """Earlier run ``run`` of ``runs`` of ``project`` as a ``result.txt``.

    Rows follow the paper's five-column format with seeded timings and
    energies; every run scales them by its own factor, and in the later
    half of the history one function's energy creeps upward, so the
    store's drift and outlier queries have something to find.
    """
    rng = random.Random((seed ^ GRAPH_SALT) * 7919 + run)
    scale = 1.0 + rng.gauss(0.0, 0.05)
    lines = ["# method\twall_seconds\tcpu_seconds\tpackage_joules\tcore_joules"]
    for position, (name, count) in enumerate(project.activations):
        drift = 1.0
        if position == 0 and run >= runs // 2:
            drift += 0.05 * (run - runs // 2 + 1)
        for _ in range(count):
            wall = rng.uniform(5e-6, 4e-5) * scale
            package = wall * 12.0 * drift
            lines.append(
                f"{name}\t{wall:.9f}\t{wall * 0.98:.9f}\t{package:.9f}\t{package * 0.75:.9f}"
            )
    return "\n".join(lines) + "\n"
