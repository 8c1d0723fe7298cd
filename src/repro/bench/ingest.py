"""``pepo bench ingest`` — columnar analytics vs the pure-Python loops.

Measures, on one synthetic profile of ``--records`` method records
(default 1M; ``--quick`` drops to 150k for CI smoke):

* **aggregate speedup** — ``ProfileResult.aggregate``'s per-record
  bucket loop (``aggregate_records_pure`` plus its sort) against
  ``RunColumns.aggregate`` (the ``np.bincount`` reduction) on the same
  data.  The columns are built once, exactly as the run store's
  ``.npz`` segments amortise them, so the vector figure is the
  repeat-aggregation cost store queries actually pay.  The one-off
  ``RunColumns.from_records`` fold is reported separately and charged
  to ingest.
* **ingest throughput** — rows/second for the full store path: parse a
  ``result.txt`` of that size straight into columns
  (``RunColumns.from_result_txt``), intern against the catalog, write
  the compressed segment.

``--check`` gates the aggregate speedup at :data:`TARGET_SPEEDUP` and
verifies the vectorized aggregates equal the pure loop's exactly —
the bench fails rather than report a fast wrong answer.  Results go to
``BENCH_ingest.json`` so the perf claim is measured, not asserted.
"""

from __future__ import annotations

import platform
import random
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.bench.harness import best_of
from repro.views.tables import render_table

#: Default output path, relative to the working directory.
DEFAULT_OUTPUT = Path("BENCH_ingest.json")

#: ``--check`` fails below this pure/vector aggregate speedup.
TARGET_SPEEDUP = 10.0

#: Synthetic profile shape: methods follow a heavy-ish tail across
#: modules, a few execution contexts, ~5% suspect rows.
_N_METHODS = 200
_N_MODULES = 12
_CONTEXT_THREADS = (0, 0, 0, 4401, 4402)


@dataclass(frozen=True)
class IngestBenchResult:
    """Timings for the columnar store against the pure loops."""

    python: str
    records: int
    pure_aggregate_s: float
    columns_build_s: float
    vector_aggregate_s: float
    ingest_s: float
    ingest_rows_per_s: float
    segment_bytes: int
    parity_ok: bool

    @property
    def aggregate_speedup(self) -> float:
        if self.vector_aggregate_s <= 0:
            return float("inf")
        return self.pure_aggregate_s / self.vector_aggregate_s

    def meets_target(self) -> bool:
        return self.parity_ok and self.aggregate_speedup >= TARGET_SPEEDUP

    def to_dict(self) -> dict:
        speedup = self.aggregate_speedup
        return {
            "bench": "ingest",
            "python": self.python,
            "records": self.records,
            "pure_aggregate_s": round(self.pure_aggregate_s, 4),
            "columns_build_s": round(self.columns_build_s, 4),
            "vector_aggregate_s": round(self.vector_aggregate_s, 6),
            "aggregate_speedup": (
                round(speedup, 1) if speedup != float("inf") else None
            ),
            "ingest_s": round(self.ingest_s, 4),
            "ingest_rows_per_s": round(self.ingest_rows_per_s),
            "segment_bytes": self.segment_bytes,
            "parity_ok": self.parity_ok,
            "target_speedup": TARGET_SPEEDUP,
            "meets_target": self.meets_target(),
        }


def _synthetic_records(n: int, seed: int = 20260809) -> list:
    from repro.profiler.records import MethodRecord
    from repro.rapl.domains import Domain

    rng = random.Random(seed)
    methods = [
        f"app.mod{m % _N_MODULES}.fn{m}" for m in range(_N_METHODS)
    ]
    # Zipf-ish hotness: earlier methods dominate, like real profiles.
    weights = [1.0 / (m + 1) for m in range(_N_METHODS)]
    picks = rng.choices(range(_N_METHODS), weights=weights, k=n)
    counts = [0] * _N_METHODS
    records = []
    for m in picks:
        ci = counts[m]
        counts[m] = ci + 1
        wall = rng.random() * 1e-3
        pkg = wall * 28.0
        thread = _CONTEXT_THREADS[m % len(_CONTEXT_THREADS)]
        records.append(
            MethodRecord(
                method=methods[m],
                filename=f"app/mod{m % _N_MODULES}.py",
                lineno=10 + m,
                call_index=ci,
                wall_seconds=wall,
                cpu_seconds=wall * 0.92,
                joules={Domain.PACKAGE: pkg, Domain.PP0: pkg * 0.4},
                exclusive_joules={Domain.PACKAGE: pkg * 0.6},
                suspect=(m * 7 + ci) % 20 == 0,
                thread_id=thread,
                thread_name="worker" if thread else "",
            )
        )
    return records


def run_ingest_bench(
    records: int = 1_000_000, quick: bool = False
) -> IngestBenchResult:
    from repro.profiler.records import ProfileResult, aggregate_records_pure
    from repro.store import RunColumns, RunStore

    n = 150_000 if quick else records
    data = _synthetic_records(n)

    def pure_aggregate():
        aggregates = aggregate_records_pure(data)
        aggregates.sort(key=lambda a: a.package_joules, reverse=True)
        return aggregates

    pure_s, pure = best_of(1, pure_aggregate)
    build_s, cols = best_of(1, lambda: RunColumns.from_records(data))
    vector_s, vector = best_of(3, cols.aggregate)

    parity_ok = vector == pure

    result = ProfileResult()
    result.extend(data)
    with tempfile.TemporaryDirectory() as tmp:
        txt = Path(tmp) / "result.txt"
        result.write_result_txt(txt)
        store = RunStore(Path(tmp) / "store")
        ingest_s, info = best_of(1, lambda: store.ingest_result_txt(txt))
        segment_bytes = (
            (store.segments_dir / info.segment).stat().st_size
        )

    return IngestBenchResult(
        python=platform.python_version(),
        records=n,
        pure_aggregate_s=pure_s,
        columns_build_s=build_s,
        vector_aggregate_s=vector_s,
        ingest_s=ingest_s,
        ingest_rows_per_s=n / ingest_s if ingest_s > 0 else float("inf"),
        segment_bytes=segment_bytes,
        parity_ok=bool(parity_ok),
    )


def render_ingest_bench(result: IngestBenchResult) -> str:
    rows = [
        ("aggregate (pure loop)", f"{result.pure_aggregate_s * 1e3:.1f}",
         "1.00x"),
        ("columns build (one-off)", f"{result.columns_build_s * 1e3:.1f}",
         "—"),
        ("aggregate (bincount)", f"{result.vector_aggregate_s * 1e3:.1f}",
         f"{result.aggregate_speedup:.1f}x"),
        ("store ingest (result.txt)", f"{result.ingest_s * 1e3:.1f}",
         f"{result.ingest_rows_per_s:,.0f} rows/s"),
    ]
    table = render_table(
        ("Stage", "Time (ms)", "vs pure"),
        rows,
        title=f"Columnar ingest bench — Python {result.python}, "
        f"{result.records:,} records",
        right_align=(1, 2),
    )
    parity = "bit-exact" if result.parity_ok else "MISMATCH"
    verdict = (
        f"aggregate speedup {result.aggregate_speedup:.1f}x "
        f"(target ≥{TARGET_SPEEDUP:.0f}x), aggregates {parity}, "
        f"segment {result.segment_bytes / 1024:.0f} KiB"
    )
    if not result.meets_target():
        verdict = "INGEST BENCH FAILED: " + verdict
    return f"{table}\n{verdict}"
