"""The columnar run store: append-only SQLite catalog + ``.npz`` segments.

Layout (rooted anywhere, conventionally ``<project>/.pepo_cache/store``
so ``pepo cache stats`` reports it next to the sweep cache)::

    store/
      catalog.db          -- runs, methods, contexts tables (SQLite)
      segments/
        run-000001.npz    -- one run's numeric columns (RunColumns)

The catalog is the single writer-serialized piece: ``methods`` and
``contexts`` intern every string once, store-wide, and each run row
records provenance (label, source, ingest timestamp) plus cheap
pre-folded totals for the stats surface.  Segments hold *global* intern
codes, so every run's codes index the same tables.

Queries never concatenate rows.  Each :class:`RunStore` folds every
segment once into running reductions (:mod:`repro.store.folds`, the
store's one reduction): per method, per (method, context) and per
context sums, plus one package-by-method row per run for trends,
outliers and drift.  A query reads the catalog once — the run list and
both string tables, in one read transaction — and folds only the runs
it has not seen.  Each folded run is keyed by its whole catalog row
(id, segment, rows, ingest time and the run's pre-folded totals) and
its segment file's ``stat`` identity; when the catalog's run list
extends what was folded, only the new runs are read, otherwise (a store
deleted and re-ingested under the same root, say) the folds are dropped
and rebuilt.  The folds hold intern codes, and names come from the
catalog read by each query.  The running sums continue in row order,
so every query's floats equal a row-order loop over the concatenated
records of every run bit for bit.

Ingest sources: live :class:`ProfileResult` objects, ``result.txt``
files (single-pass, no record objects), and directories — including
subprocess spool directories full of ``pepo-<pid>-*.result.txt``.
"""

from __future__ import annotations

import datetime as _dt
import sqlite3
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple

import numpy as np

from repro.profiler.records import parse_result_txt
from repro.store.columns import RunColumns
from repro.store.folds import StoreFolds

if TYPE_CHECKING:
    from repro.analyzer.findings import Finding
    from repro.profiler.records import MethodAggregate, ProfileResult

#: Bump when the catalog schema changes incompatibly.
STORE_FORMAT = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS methods (
    code INTEGER PRIMARY KEY,
    name TEXT UNIQUE NOT NULL
);
CREATE TABLE IF NOT EXISTS contexts (
    code  INTEGER PRIMARY KEY,
    label TEXT UNIQUE NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    id                   INTEGER PRIMARY KEY,
    label                TEXT NOT NULL,
    source               TEXT NOT NULL,
    ingested_at          TEXT NOT NULL,
    rows                 INTEGER NOT NULL,
    segment              TEXT NOT NULL,
    total_package_joules REAL NOT NULL,
    wall_seconds         REAL NOT NULL,
    suspect_rows         INTEGER NOT NULL,
    degraded             INTEGER NOT NULL DEFAULT 0
);
"""


@dataclass(frozen=True)
class RunInfo:
    """One catalog row — provenance and pre-folded totals for a run."""

    run_id: int
    label: str
    source: str
    ingested_at: str
    rows: int
    segment: str
    total_package_joules: float
    wall_seconds: float
    suspect_rows: int
    degraded: bool


@dataclass(frozen=True)
class StoreStats:
    """Inventory of a store (the ``pepo cache stats`` store section)."""

    root: Path
    runs: int
    rows: int
    methods: int
    contexts: int
    bytes: int
    last_ingest: str | None
    total_package_joules: float

    def render(self) -> str:
        last = self.last_ingest or "never"
        return (
            f"run store {self.root}\n"
            f"  runs: {self.runs}  rows: {self.rows}  "
            f"methods: {self.methods}  contexts: {self.contexts}\n"
            f"  size: {self.bytes} bytes  last ingest: {last}"
        )


@dataclass(frozen=True)
class ContextTotal:
    """Σ exclusive package joules for one execution context."""

    context: str
    exclusive_package_joules: float
    rows: int


@dataclass(frozen=True)
class OutlierRun:
    """A run whose per-method energy falls outside the Tukey fences."""

    method: str
    run_id: int
    run_label: str
    package_joules: float
    lower: float
    upper: float


@dataclass(frozen=True)
class RuleSaving:
    """Estimated headroom one rule's findings leave on the table.

    ``estimated_savings_joules`` scales the matched methods' exclusive
    energy by the rule's paper overhead: an inefficient form costing
    ``(100+p)%`` of the efficient one saves ``E·p/(100+p)`` of the
    observed energy when fixed.
    """

    rule_id: str
    findings: int
    matched_methods: int
    exclusive_joules: float
    overhead_percent: float
    estimated_savings_joules: float


class _Catalog(NamedTuple):
    """One consistent read of the catalog."""

    runs: list[RunInfo]
    methods: list[str]
    contexts: list[str]


_RUNS_SQL = (
    "SELECT id, label, source, ingested_at, rows, segment,"
    " total_package_joules, wall_seconds, suspect_rows,"
    " degraded FROM runs ORDER BY id"
)


class RunStore:
    """Append-only columnar store over profiling runs (see module doc)."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.segments_dir = self.root / "segments"
        self.catalog = self.root / "catalog.db"
        self._folds = StoreFolds()
        # Queries extend the folds in place; one at a time.
        self._fold_lock = threading.Lock()

    # -- catalog plumbing ---------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        self.root.mkdir(parents=True, exist_ok=True)
        self.segments_dir.mkdir(exist_ok=True)
        conn = sqlite3.connect(self.catalog)
        conn.executescript(_SCHEMA)
        conn.execute(
            "INSERT OR IGNORE INTO meta(key, value) VALUES ('format', ?)",
            (str(STORE_FORMAT),),
        )
        return conn

    def exists(self) -> bool:
        return self.catalog.is_file()

    @staticmethod
    def _intern(
        conn: sqlite3.Connection, table: str, column: str, names: Iterable[str]
    ) -> dict[str, int]:
        """Map names to global codes, assigning fresh codes to new ones."""
        known = dict(
            conn.execute(f"SELECT {column}, code FROM {table}")  # noqa: S608
        )
        fresh = [name for name in names if name not in known]
        next_code = len(known)
        for name in fresh:
            known[name] = next_code
            next_code += 1
        if fresh:
            conn.executemany(
                f"INSERT INTO {table}(code, {column}) VALUES (?, ?)",  # noqa: S608
                [(known[name], name) for name in fresh],
            )
        return known

    @staticmethod
    def _table(
        conn: sqlite3.Connection, table: str, column: str
    ) -> list[str]:
        rows = conn.execute(
            f"SELECT {column} FROM {table} ORDER BY code"  # noqa: S608
        ).fetchall()
        return [row[0] for row in rows]

    # -- ingest --------------------------------------------------------

    def ingest_result(
        self,
        result: "ProfileResult",
        label: str = "run",
        source: str = "live",
    ) -> RunInfo:
        """Fold a live profile into the store (one run, one segment)."""
        cols = RunColumns.from_records(list(result))
        return self._ingest_columns(
            cols, label=label, source=source, degraded=result.degraded
        )

    def ingest_result_txt(self, path: str | Path) -> RunInfo:
        """Single-pass ingest of one ``result.txt`` (no record objects)."""
        path = Path(path)
        parsed = parse_result_txt(path)
        return self._ingest_columns(
            RunColumns.from_result_file(parsed),
            label=path.stem,
            source=str(path),
            degraded=parsed.degraded,
        )

    def ingest_path(self, path: str | Path) -> list[RunInfo]:
        """Ingest a ``result.txt`` file, or every one under a directory.

        Directories are walked for ``result.txt`` and spool-style
        ``*.result.txt`` files (the subprocess capture naming), sorted
        for determinism.
        """
        path = Path(path)
        if path.is_dir():
            found = sorted(
                p
                for p in path.rglob("*")
                if p.is_file()
                and (p.name == "result.txt" or p.name.endswith(".result.txt"))
            )
            if not found:
                raise FileNotFoundError(
                    f"no result.txt or *.result.txt files under {path}"
                )
            return [self.ingest_result_txt(p) for p in found]
        return [self.ingest_result_txt(path)]

    def _ingest_columns(
        self,
        cols: RunColumns,
        label: str,
        source: str,
        degraded: bool = False,
    ) -> RunInfo:
        conn = self._connect()
        try:
            with conn:
                method_map = self._intern(
                    conn, "methods", "name", cols.methods
                )
                context_map = self._intern(
                    conn, "contexts", "label", cols.contexts
                )
                methods = self._table(conn, "methods", "name")
                contexts = self._table(conn, "contexts", "label")
                run_cols = cols.remapped(
                    methods, contexts, method_map, context_map
                )
                ingested_at = (
                    _dt.datetime.now(_dt.timezone.utc)
                    .isoformat(timespec="seconds")
                )
                rows = len(run_cols)
                total_package_joules = float(np.sum(run_cols.package))
                wall_seconds = float(np.sum(run_cols.wall))
                suspect_rows = int(np.count_nonzero(run_cols.suspect))
                cursor = conn.execute(
                    "INSERT INTO runs(label, source, ingested_at, rows,"
                    " segment, total_package_joules, wall_seconds,"
                    " suspect_rows, degraded)"
                    " VALUES (?, ?, ?, ?, '', ?, ?, ?, ?)",
                    (
                        label,
                        source,
                        ingested_at,
                        rows,
                        total_package_joules,
                        wall_seconds,
                        suspect_rows,
                        int(degraded),
                    ),
                )
                run_id = int(cursor.lastrowid)
                segment = f"run-{run_id:06d}.npz"
                run_cols.save_npz(self.segments_dir / segment)
                conn.execute(
                    "UPDATE runs SET segment = ? WHERE id = ?",
                    (segment, run_id),
                )
            return RunInfo(
                run_id=run_id,
                label=label,
                source=source,
                ingested_at=ingested_at,
                rows=rows,
                segment=segment,
                total_package_joules=total_package_joules,
                wall_seconds=wall_seconds,
                suspect_rows=suspect_rows,
                degraded=degraded,
            )
        finally:
            conn.close()

    # -- catalog queries ----------------------------------------------

    def _read_catalog(self) -> _Catalog:
        """The run list and both string tables, in one read transaction.

        Runs no schema script and writes nothing: a store that was never
        ingested into reads as empty and is not created.
        """
        if not self.exists():
            return _Catalog([], [], [])
        conn = sqlite3.connect(self.catalog, isolation_level=None)
        try:
            conn.execute("BEGIN")
            rows = conn.execute(_RUNS_SQL).fetchall()
            methods = self._table(conn, "methods", "name")
            contexts = self._table(conn, "contexts", "label")
        finally:
            conn.close()
        runs = [
            RunInfo(
                run_id=row[0],
                label=row[1],
                source=row[2],
                ingested_at=row[3],
                rows=row[4],
                segment=row[5],
                total_package_joules=row[6],
                wall_seconds=row[7],
                suspect_rows=row[8],
                degraded=bool(row[9]),
            )
            for row in rows
        ]
        return _Catalog(runs, methods, contexts)

    def runs(self) -> list[RunInfo]:
        return self._read_catalog().runs

    def stats(self) -> StoreStats:
        runs, methods, contexts = self._read_catalog()
        size = 0
        if self.catalog.is_file():
            size += self.catalog.stat().st_size
        if self.segments_dir.is_dir():
            size += sum(
                p.stat().st_size for p in self.segments_dir.glob("*.npz")
            )
        return StoreStats(
            root=self.root,
            runs=len(runs),
            rows=sum(r.rows for r in runs),
            methods=len(methods),
            contexts=len(contexts),
            bytes=size,
            last_ingest=max((r.ingested_at for r in runs), default=None),
            total_package_joules=sum(r.total_package_joules for r in runs),
        )

    # -- columnar loads -----------------------------------------------

    def string_tables(self) -> tuple[list[str], list[str]]:
        _, methods, contexts = self._read_catalog()
        return methods, contexts

    def _load_segment(self, info: RunInfo, catalog: _Catalog) -> RunColumns:
        return RunColumns.load_npz(
            self.segments_dir / info.segment, catalog.methods, catalog.contexts
        )

    def load_run(self, run_id: int) -> RunColumns:
        catalog = self._read_catalog()
        info = next((r for r in catalog.runs if r.run_id == run_id), None)
        if info is None:
            raise KeyError(f"run {run_id} not in store {self.root}")
        return self._load_segment(info, catalog)

    def _folded(self) -> tuple[_Catalog, StoreFolds]:
        """The catalog, and folds over every run in it (see module doc).

        Call with ``_fold_lock`` held; the folds are only valid under it.
        """
        catalog = self._read_catalog()
        keys = []
        for info in catalog.runs:
            st = (self.segments_dir / info.segment).stat()
            keys.append((info, st.st_ino, st.st_size, st.st_mtime_ns))
        folds = self._folds
        if not folds.extends(keys):
            folds = self._folds = StoreFolds()
        for i in range(len(folds.keys), len(keys)):
            folds.add(keys[i], self._load_segment(catalog.runs[i], catalog))
        return catalog, folds

    # -- aggregations over the folds --------------------------------

    def top_methods(
        self, n: int = 10, by_context: bool = False
    ) -> "list[MethodAggregate]":
        """Top-N hottest methods across every run, energy-descending."""
        with self._fold_lock:
            catalog, folds = self._folded()
            return folds.aggregates(
                catalog.methods, catalog.contexts, by_context
            )[:n]

    def context_totals(self) -> list[ContextTotal]:
        """Per-execution-context exclusive energy, energy-descending."""
        with self._fold_lock:
            catalog, folds = self._folded()
            size = len(catalog.contexts)
            totals = folds.by_context.dense("exclusive_package", size)
            rows = folds.by_context.dense(None, size)
        order = np.argsort(-totals, kind="stable")
        return [
            ContextTotal(
                context=catalog.contexts[i],
                exclusive_package_joules=float(totals[i]),
                rows=int(rows[i]),
            )
            for i in order.tolist()
            if rows[i]
        ]

    def method_trend_matrix(
        self,
    ) -> tuple[list[str], list[RunInfo], "np.ndarray"]:
        """(methods, runs, runs×methods package-joule totals) for trends.

        Row ``i`` is run ``i``'s per-method ``bincount``, kept by the
        folds; the matrix is built fresh for every call.
        """
        with self._fold_lock:
            catalog, folds = self._folded()
            if not folds.rows:
                return [], [], np.zeros((0, 0))
            matrix = folds.trend_matrix(len(catalog.methods))
        return catalog.methods, catalog.runs, matrix

    def outlier_runs(self, k: float = 1.5) -> list[OutlierRun]:
        """Runs whose per-method energy lies outside the Tukey fences.

        Uses :func:`repro.stats.tukey.tukey_fences` per method column
        over the run×method trend matrix — the store-side version of
        the suspect-interval filtering the stats layer does per record.
        """
        from repro.stats.tukey import tukey_fences

        methods, runs, matrix = self.method_trend_matrix()
        out: list[OutlierRun] = []
        if len(runs) < 4:
            return out
        for m, method in enumerate(methods):
            column = matrix[:, m]
            if not np.any(column):
                continue
            fences = tukey_fences(column.tolist(), k=k)
            bad = (column < fences.lower) | (column > fences.upper)
            for r in np.flatnonzero(bad).tolist():
                out.append(
                    OutlierRun(
                        method=method,
                        run_id=runs[r].run_id,
                        run_label=runs[r].label,
                        package_joules=float(column[r]),
                        lower=fences.lower,
                        upper=fences.upper,
                    )
                )
        return out

    def rule_savings(
        self, findings: Iterable["Finding"]
    ) -> list[RuleSaving]:
        """Estimated per-rule savings, joining findings onto the store.

        A finding in ``pkg/mod.py`` is matched to profiled methods whose
        name lives in the ``pkg.mod`` module (method names are
        ``module.qualname``); the rule's paper overhead then scales the
        matched exclusive energy into an estimated saving.  The
        per-method exclusive totals come from the folds; the join runs
        over the small interned table.
        """
        with self._fold_lock:
            catalog, folds = self._folded()
            if not folds.rows:
                return []
            totals = folds.by_method.dense(
                "exclusive_package", len(catalog.methods)
            )
        by_rule: dict[str, dict] = {}
        for finding in findings:
            module = _module_of(finding.file)
            entry = by_rule.setdefault(
                finding.rule_id,
                {"count": 0, "modules": set(), "overhead": 0.0},
            )
            entry["count"] += 1
            entry["modules"].add(module)
            if finding.overhead_percent:
                entry["overhead"] = max(
                    entry["overhead"], float(finding.overhead_percent)
                )
        out: list[RuleSaving] = []
        for rule_id in sorted(by_rule):
            entry = by_rule[rule_id]
            matched = [
                code
                for code, name in enumerate(catalog.methods)
                if any(
                    name.startswith(module + ".") or name == module
                    for module in entry["modules"]
                    if module
                )
            ]
            energy = float(
                np.take(totals, matched).sum()
            ) if matched else 0.0
            pct = entry["overhead"]
            saving = energy * pct / (100.0 + pct) if pct else 0.0
            out.append(
                RuleSaving(
                    rule_id=rule_id,
                    findings=entry["count"],
                    matched_methods=len(matched),
                    exclusive_joules=energy,
                    overhead_percent=pct,
                    estimated_savings_joules=saving,
                )
            )
        out.sort(key=lambda s: s.estimated_savings_joules, reverse=True)
        return out

    def drift_flags(self, delta: float = 0.05, min_runs: int = 4):
        """Per-method energy drift across runs (Hoeffding-bound test)."""
        from repro.store.drift import detect_drift

        methods, runs, matrix = self.method_trend_matrix()
        return detect_drift(
            matrix, methods, [r.label for r in runs], delta=delta,
            min_runs=min_runs,
        )


def _module_of(file: str) -> str:
    """Best-effort dotted module name of a findings file path."""
    parts = Path(file).with_suffix("").parts
    cleaned = [p for p in parts if p not in (".", "..", "/", "src")]
    if cleaned and cleaned[-1] == "__init__":
        cleaned = cleaned[:-1]
    return ".".join(cleaned)
