"""Columnar run segments: numpy arrays + interned string tables.

One profiling run becomes one :class:`RunColumns` — the struct-of-
arrays layout shared with :class:`repro.profiler.fastpath.
ProfileColumns`, persisted as a compressed ``.npz`` of the numeric
columns.  String tables (method names, execution-context labels) are
*not* stored in the segment: the :class:`~repro.store.runstore.
RunStore` interns them globally in its SQLite catalog and rewrites each
segment's codes to the global tables at ingest, so segments from many
runs concatenate without any remapping at query time.

Unlike the profiler fast paths, this module requires numpy outright
(``repro.store`` is an analytics layer, not a measurement layer) and is
not subject to the ``PEPO_PURE_PYTHON`` gate — that variable switches
the *profiler* onto its fallback loops for parity testing; the store
has no fallback to switch to.  ``result.txt`` files are read by the
profiler's own parser, :func:`repro.profiler.records.parse_result_txt`,
called with numpy: :meth:`RunColumns.from_result_file` only labels the
contexts and wraps the parsed lists as arrays.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

try:
    import numpy as np
except ImportError as exc:  # pragma: no cover - environment-dependent
    raise ImportError(
        "repro.store requires numpy; the profiler itself runs without "
        "it, but columnar analytics have no pure-Python fallback"
    ) from exc

from repro.profiler.fastpath import (
    ProfileColumns,
    aggregate_columns,
    build_columns,
)
from repro.profiler.records import context_label, parse_result_txt

if TYPE_CHECKING:
    from repro.profiler.records import (
        MethodAggregate,
        MethodRecord,
        ResultFile,
    )


#: Numeric columns persisted in a ``.npz`` segment, in schema order.
SEGMENT_FIELDS = (
    "method_code",
    "context_code",
    "call_index",
    "wall",
    "cpu",
    "package",
    "core",
    "exclusive_package",
    "suspect",
)


class RunColumns(ProfileColumns):
    """One run's records as flat columns (see module docstring).

    Inherits the column layout from the profiler's
    :class:`ProfileColumns`; adds the ingest constructors, the ``.npz``
    round trip and the vectorized reductions the store builds on.
    """

    # -- constructors --------------------------------------------------

    @classmethod
    def from_records(cls, records: Sequence["MethodRecord"]) -> "RunColumns":
        """Fold live :class:`MethodRecord` objects into columns."""
        cols = build_columns(records, np=np, cls=cls)
        assert isinstance(cols, cls)
        return cols

    @classmethod
    def from_result_txt(cls, path: str | Path) -> "RunColumns":
        """``result.txt`` → columns, no record objects."""
        return cls.from_result_file(parse_result_txt(path, np=np))

    @classmethod
    def from_result_file(cls, parsed: "ResultFile") -> "RunColumns":
        """Columns from a :func:`parse_result_txt` result parsed with numpy.

        The parse already interned the methods, counted ``call_index``
        and converted the floats; this only maps each context token
        tuple to its label (merging any tuples that share one) and
        wraps the lists as arrays.
        """
        label_ids: dict[str, int] = {}
        to_label = np.asarray(
            [
                label_ids.setdefault(context_label(*ctx), len(label_ids))
                for ctx in parsed.contexts
            ],
            dtype=np.int32,
        )
        return cls(
            methods=parsed.methods,
            contexts=list(label_ids),
            method_code=np.asarray(parsed.method_code, dtype=np.int32),
            context_code=to_label[
                np.asarray(parsed.context_code, dtype=np.intp)
            ],
            call_index=np.asarray(parsed.call_index, dtype=np.int64),
            wall=parsed.wall,
            cpu=parsed.cpu,
            package=parsed.package,
            core=parsed.core,
            exclusive_package=np.zeros(len(parsed.suspect), dtype=np.float64),
            suspect=np.asarray(parsed.suspect, dtype=bool),
        )

    # -- .npz round trip ----------------------------------------------

    def save_npz(self, path: str | Path) -> Path:
        """Persist the numeric columns (string tables live in the catalog)."""
        path = Path(path)
        np.savez_compressed(
            path, **{name: getattr(self, name) for name in SEGMENT_FIELDS}
        )
        return path

    @classmethod
    def load_npz(
        cls, path: str | Path, methods: list[str], contexts: list[str]
    ) -> "RunColumns":
        """Rehydrate a segment against the store's global string tables."""
        with np.load(Path(path)) as data:
            arrays = {name: data[name] for name in SEGMENT_FIELDS}
        return cls(methods=methods, contexts=contexts, **arrays)

    def remapped(
        self,
        methods: list[str],
        contexts: list[str],
        method_map: dict[str, int],
        context_map: dict[str, int],
    ) -> "RunColumns":
        """Rewrite local intern codes to the store's global tables."""
        to_global_m = np.asarray(
            [method_map[name] for name in self.methods], dtype=np.int32
        )
        to_global_c = np.asarray(
            [context_map[label] for label in self.contexts], dtype=np.int32
        )
        return type(self)(
            methods=methods,
            contexts=contexts,
            method_code=(
                to_global_m[self.method_code]
                if len(self.methods)
                else self.method_code
            ),
            context_code=(
                to_global_c[self.context_code]
                if len(self.contexts)
                else self.context_code
            ),
            call_index=self.call_index,
            wall=self.wall,
            cpu=self.cpu,
            package=self.package,
            core=self.core,
            exclusive_package=self.exclusive_package,
            suspect=self.suspect,
        )

    # -- vectorized reductions ----------------------------------------

    def aggregate(self, by_context: bool = False) -> "list[MethodAggregate]":
        """Per-method (or per method × context) totals, energy-descending.

        Same output as :meth:`ProfileResult.aggregate` on the
        equivalent records — bit-exactly, including tie order
        (parity-tested against the pure loop).
        """
        aggregates = aggregate_columns(self, by_context, np=np)
        aggregates.sort(key=lambda a: a.package_joules, reverse=True)
        return aggregates

    def method_totals(self, field: str = "package") -> "np.ndarray":
        """Σ of one float column per method code (dense, table order)."""
        return np.bincount(
            self.method_code,
            weights=getattr(self, field),
            minlength=len(self.methods),
        )

    def context_exclusive_totals(self) -> "np.ndarray":
        """Σ exclusive package joules per context code (table order)."""
        return np.bincount(
            self.context_code,
            weights=self.exclusive_package,
            minlength=len(self.contexts),
        )


def concat_columns(segments: Iterable[RunColumns]) -> RunColumns | None:
    """Concatenate segments that already share global string tables."""
    segments = [s for s in segments if len(s)]
    if not segments:
        return None
    first = segments[0]
    if len(segments) == 1:
        return first
    arrays = {
        name: np.concatenate([getattr(s, name) for s in segments])
        for name in SEGMENT_FIELDS
    }
    return RunColumns(
        methods=first.methods, contexts=first.contexts, **arrays
    )
