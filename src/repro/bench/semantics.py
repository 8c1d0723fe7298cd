"""``pepo bench semantics`` — cost of the flow-sensitive fact layer.

The flow-sensitive layer (CFGs, reaching definitions, type states,
liveness, the purity call graph) runs on every analyzed file, so its
cost is paid by ``pepo suggest``/``check``/``optimize`` sweeps and by
the editor-style watch loop.  This bench measures that cost directly:
for each file in a corpus (default: pepo's own source tree) it times

* ``parse`` — ``ast.parse`` alone (the floor any analysis pays), and
* ``facts`` — ``build_semantic_model(tree).materialize()``, which
  forces scopes, types, hotness, every function's CFG + reaching
  definitions + type states, and the purity call graph,

best-of-``repeats``, and normalizes to **milliseconds per KLoC**
(thousand non-blank, non-comment lines — the same LOC convention as
Table II).  Normalizing by corpus size makes the figure comparable
across machines and across corpus choices.

Budget: ``BUDGET_MS_PER_KLOC`` (default 900 ms/KLoC) is the gate for
``--check``.  Measured on pepo's own tree under Python 3.11, the fact
layer runs at about 40 ms/KLoC (the committed ``BENCH_semantics.json``)
and at 54–81 ms/KLoC on a shared 2-CPU x86-64 container.  The budget
is therefore an order of magnitude loose: it catches an accidental
quadratic blow-up but not a 2× regression.  Tightening it to about
1.5× the measured figure is left to the bench-harness item of
ROADMAP.md.  ``--quick`` caps the corpus at :data:`QUICK_FILE_CAP`
files and uses fewer repeats — the CI smoke configuration.

Results go to ``BENCH_semantics.json`` so the perf claim is measured,
not asserted.
"""

from __future__ import annotations

import ast
import platform
from dataclasses import dataclass
from pathlib import Path

from repro.bench.harness import best_of, default_project_dir
from repro.views.tables import render_table

#: Default output path, relative to the working directory.
DEFAULT_OUTPUT = Path("BENCH_semantics.json")

#: ``--check`` fails when materializing every flow fact costs more
#: than this many milliseconds per thousand lines of code.
BUDGET_MS_PER_KLOC = 900.0

#: ``--quick`` analyzes at most this many files (largest first, so the
#: smoke run still covers the most structurally demanding modules).
QUICK_FILE_CAP = 12


@dataclass(frozen=True)
class SemanticsBenchResult:
    """Timing of the flow-fact layer over a corpus."""

    python: str
    corpus: str
    files: int
    loc: int
    functions: int
    repeats: int
    quick: bool
    #: Best-of-repeats wall time for ``ast.parse`` over the corpus.
    parse_ms: float
    #: Best-of-repeats wall time for building + materializing every
    #: semantic model over the corpus (parse excluded).
    facts_ms: float
    budget_ms_per_kloc: float = BUDGET_MS_PER_KLOC

    @property
    def kloc(self) -> float:
        return self.loc / 1000.0

    def facts_ms_per_kloc(self) -> float:
        """The headline figure ``--check`` gates on."""
        return self.facts_ms / self.kloc if self.loc else 0.0

    def parse_ms_per_kloc(self) -> float:
        return self.parse_ms / self.kloc if self.loc else 0.0

    def meets_target(self) -> bool:
        return self.facts_ms_per_kloc() <= self.budget_ms_per_kloc

    def to_dict(self) -> dict:
        return {
            "bench": "semantics",
            "python": self.python,
            "corpus": self.corpus,
            "files": self.files,
            "loc": self.loc,
            "functions": self.functions,
            "repeats": self.repeats,
            "quick": self.quick,
            "parse_ms": round(self.parse_ms, 3),
            "facts_ms": round(self.facts_ms, 3),
            "parse_ms_per_kloc": round(self.parse_ms_per_kloc(), 3),
            "facts_ms_per_kloc": round(self.facts_ms_per_kloc(), 3),
            "budget_ms_per_kloc": self.budget_ms_per_kloc,
            "meets_target": self.meets_target(),
        }


def corpus_files(root: str | Path, cap: int | None = None) -> list[Path]:
    """The ``.py`` files under ``root`` that actually parse, largest
    first when ``cap`` trims the list (so ``--quick`` keeps the most
    demanding modules rather than a directory-order accident)."""
    from repro.sweep import DEFAULT_EXCLUDE_DIRS

    root = Path(root)
    if root.is_file():
        return [root]
    # Match directory names below ``root`` only: a project that itself
    # sits under ``venv/`` or a checkout named ``.git`` is still walked.
    files = [
        path
        for path in sorted(root.rglob("*.py"))
        if not any(
            part in DEFAULT_EXCLUDE_DIRS
            for part in path.relative_to(root).parts[:-1]
        )
    ]
    if cap is not None and len(files) > cap:
        files.sort(key=lambda p: p.stat().st_size, reverse=True)
        files = files[:cap]
        files.sort()
    return files


def run_semantics_bench(
    project_dir: str | Path | None = None,
    quick: bool = False,
    repeats: int | None = None,
) -> SemanticsBenchResult:
    """Time the fact layer over ``project_dir`` (default: pepo's own
    ``src/repro`` tree — the same self-hosted corpus the sweep bench
    uses)."""
    from repro.metrics.loc import count_loc
    from repro.semantics import build_semantic_model

    if project_dir is None:
        project_dir = default_project_dir()
    if repeats is None:
        repeats = 2 if quick else 5
    files = corpus_files(project_dir, cap=QUICK_FILE_CAP if quick else None)

    sources: list[tuple[str, str]] = []
    loc = 0
    for path in files:
        try:
            text = path.read_text(encoding="utf-8")
            ast.parse(text, filename=str(path))
        except (SyntaxError, UnicodeDecodeError, OSError):
            continue
        sources.append((str(path), text))
        loc += count_loc(text)

    parse_s, trees = best_of(
        repeats,
        lambda: [ast.parse(text, filename=name) for name, text in sources],
    )
    facts_s, functions = best_of(
        repeats,
        lambda: sum(
            build_semantic_model(tree).materialize()["functions"]
            for tree in trees
        ),
    )

    return SemanticsBenchResult(
        python=platform.python_version(),
        corpus=str(project_dir),
        files=len(sources),
        loc=loc,
        functions=functions,
        repeats=max(repeats, 1),
        quick=quick,
        parse_ms=parse_s * 1000.0,
        facts_ms=facts_s * 1000.0,
    )


def render_semantics_bench(result: SemanticsBenchResult) -> str:
    rows = [
        ("ast.parse", f"{result.parse_ms:.1f}",
         f"{result.parse_ms_per_kloc():.1f}", "—"),
        ("flow facts", f"{result.facts_ms:.1f}",
         f"{result.facts_ms_per_kloc():.1f}",
         f"{result.budget_ms_per_kloc:.0f}"),
    ]
    table = render_table(
        ("Stage", "Total (ms)", "ms/KLoC", "Budget"),
        rows,
        title=f"Flow-fact layer bench — Python {result.python}, "
        f"{result.files} file(s), {result.loc} LoC, "
        f"{result.functions} function(s), best of {result.repeats}",
        right_align=(1, 2, 3),
    )
    verdict = (
        f"flow facts within budget: {result.facts_ms_per_kloc():.1f} "
        f"<= {result.budget_ms_per_kloc:.0f} ms/KLoC"
        if result.meets_target()
        else f"SEMANTICS REGRESSION: {result.facts_ms_per_kloc():.1f} "
        f"ms/KLoC exceeds the {result.budget_ms_per_kloc:.0f} ms/KLoC "
        "budget"
    )
    return f"{table}\n{verdict}"
