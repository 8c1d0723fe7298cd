"""Columnar run segments: numpy arrays + interned string tables.

One profiling run becomes one :class:`RunColumns`: a struct-of-arrays
view of its records, persisted as a compressed ``.npz`` of the numeric
columns.  String tables (method names, execution-context labels) are
*not* stored in the segment: the :class:`~repro.store.runstore.
RunStore` interns them globally in its SQLite catalog and rewrites each
segment's codes to the global tables at ingest, so segments from many
runs concatenate without any remapping at query time.

This module requires numpy outright: ``repro.store`` is an analytics
layer, not a measurement layer, and the profiler that feeds it runs
without numpy.  ``result.txt`` files are read by the profiler's own
parser, :func:`repro.profiler.records.parse_result_txt`, called with
numpy: :meth:`RunColumns.from_result_file` only labels the contexts and
wraps the parsed columns as arrays.

Bit-exactness contract (tests/profiler/test_columnar_parity.py):
:meth:`RunColumns.aggregate` produces *identical* floats to
:meth:`repro.profiler.records.ProfileResult.aggregate`'s bucket loop,
not merely close ones.  The accumulation primitives are chosen for
that property:

* ``np.bincount(codes, weights=w)`` adds weights in input order into
  each bucket — the same IEEE-754 addition sequence as the Python
  per-bucket running sums.
* ``np.sum``/``np.add.reduce`` use pairwise summation and are therefore
  **banned** for any parity-gated value.
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

from repro.profiler.records import (
    MethodAggregate,
    context_label,
    parse_result_txt,
)
from repro.rapl.domains import Domain

if TYPE_CHECKING:
    from repro.profiler.records import MethodRecord, ResultFile


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

#: Columns an aggregate bucket sums, in :class:`MethodAggregate` order
#: (``suspect`` sums as 0.0/1.0 and is reported as a count).
AGGREGATE_FIELDS = (
    "wall",
    "cpu",
    "package",
    "core",
    "exclusive_package",
    "suspect",
)


class RunColumns:
    """One run's records as flat columns (see module docstring).

    ``methods`` / ``contexts`` are interned string tables in first-seen
    order; the ``*_code`` columns index into them.  Float columns carry
    exactly the values the corresponding :class:`MethodRecord`
    properties expose, so reductions over the columns see the same
    numbers the record loops see.
    """

    __slots__ = ("methods", "contexts", *SEGMENT_FIELDS)

    def __init__(
        self,
        methods: list[str],
        contexts: list[str],
        method_code,
        context_code,
        call_index,
        wall,
        cpu,
        package,
        core,
        exclusive_package,
        suspect,
    ) -> None:
        self.methods = methods
        self.contexts = contexts
        self.method_code = method_code
        self.context_code = context_code
        self.call_index = call_index
        self.wall = wall
        self.cpu = cpu
        self.package = package
        self.core = core
        self.exclusive_package = exclusive_package
        self.suspect = suspect

    def __len__(self) -> int:
        return int(self.method_code.shape[0])

    # -- constructors --------------------------------------------------

    @classmethod
    def from_records(cls, records: Sequence["MethodRecord"]) -> "RunColumns":
        """Fold live :class:`MethodRecord` objects into columns (one pass)."""
        method_ids: dict[str, int] = {}
        context_ids: dict[str, int] = {}
        mcodes: list[int] = []
        ccodes: list[int] = []
        call_index: list[int] = []
        wall: list[float] = []
        cpu: list[float] = []
        package: list[float] = []
        core: list[float] = []
        exclusive: list[float] = []
        suspect: list[bool] = []
        pkg_dom = Domain.PACKAGE
        core_dom = Domain.PP0
        for r in records:
            mcodes.append(method_ids.setdefault(r.method, len(method_ids)))
            label = r.context_label
            ccodes.append(context_ids.setdefault(label, len(context_ids)))
            call_index.append(r.call_index)
            wall.append(r.wall_seconds)
            cpu.append(r.cpu_seconds)
            joules = r.joules
            package.append(joules.get(pkg_dom, 0.0))
            core.append(joules.get(core_dom, 0.0))
            exclusive.append(r.exclusive_joules.get(pkg_dom, 0.0))
            suspect.append(r.suspect)
        return cls(
            methods=list(method_ids),
            contexts=list(context_ids),
            method_code=np.asarray(mcodes, dtype=np.int32),
            context_code=np.asarray(ccodes, dtype=np.int32),
            call_index=np.asarray(call_index, dtype=np.int64),
            wall=np.asarray(wall, dtype=np.float64),
            cpu=np.asarray(cpu, dtype=np.float64),
            package=np.asarray(package, dtype=np.float64),
            core=np.asarray(core, dtype=np.float64),
            exclusive_package=np.asarray(exclusive, dtype=np.float64),
            suspect=np.asarray(suspect, dtype=bool),
        )

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
        (parity-tested against its bucket loop): ``np.bincount``
        accumulates in input order, and buckets come out in first-seen
        order before the same stable sort.
        """
        n = len(self)
        if n == 0:
            return []
        if by_context:
            n_contexts = len(self.contexts)
            codes = self.method_code.astype(np.int64) * n_contexts
            codes += self.context_code
            n_buckets = len(self.methods) * n_contexts
        else:
            codes = self.method_code.astype(np.int64)
            n_buckets = len(self.methods)
        # First-seen bucket order, matching the dict-insertion order of
        # the record loop (the final sort is stable, so ties keep this
        # order).  Scatter-assign positions in *reverse*: fancy-index
        # assignment applies writes in index order, so each bucket keeps
        # its first occurrence — O(n), no sort (np.unique's sort
        # dominates at 1M+).
        first = np.full(n_buckets, -1, dtype=np.int64)
        first[codes[::-1]] = np.arange(n - 1, -1, -1, dtype=np.int64)
        present = np.flatnonzero(first >= 0)
        order = present[np.argsort(first[present])]
        if by_context:
            labels = [
                (self.methods[m], self.contexts[c])
                for m, c in (
                    divmod(code, n_contexts) for code in order.tolist()
                )
            ]
        else:
            labels = [(self.methods[code], "") for code in order.tolist()]
        return method_aggregates(
            labels,
            np.bincount(codes, minlength=n_buckets)[order],
            {
                name: np.bincount(
                    codes, weights=getattr(self, name), minlength=n_buckets
                )[order]
                for name in AGGREGATE_FIELDS
            },
        )


def method_aggregates(
    labels: list[tuple[str, str]], calls, sums: dict
) -> "list[MethodAggregate]":
    """One :class:`MethodAggregate` per bucket, energy-descending.

    ``labels[i]`` is bucket ``i``'s (method, context); ``calls`` and the
    :data:`AGGREGATE_FIELDS` arrays in ``sums`` are indexed alike.
    Buckets arrive in first-seen order and the sort is stable, so ties
    keep that order.
    """
    counts = calls.tolist()
    wall, cpu, package, core, exclusive, suspect = (
        sums[name].tolist() for name in AGGREGATE_FIELDS
    )
    aggregates = [
        MethodAggregate(
            method=method,
            calls=counts[i],
            wall_seconds=wall[i],
            cpu_seconds=cpu[i],
            package_joules=package[i],
            core_joules=core[i],
            exclusive_package_joules=exclusive[i],
            suspect_calls=int(suspect[i]),
            context=context,
        )
        for i, (method, context) in enumerate(labels)
    ]
    aggregates.sort(key=lambda a: a.package_joules, reverse=True)
    return aggregates


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
