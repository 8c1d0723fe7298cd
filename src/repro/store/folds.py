"""Running reductions over a run store, folded in one segment at a time.

This module is the store's one reduction.  A :class:`StoreFolds` holds,
for a prefix of the catalog's runs, every sum the store's queries read:

* per method: calls and the sums of the :data:`AGGREGATE_FIELDS`,
  buckets numbered in first-seen row order;
* the same per (method, context) pair, for ``top_methods(by_context=True)``;
* per context: exclusive package joules and row counts;
* per run: package joules by method — one row of the trend matrix.

Folding a run reads its segment once and keeps only those sums, so a
query costs O(runs × methods) whatever the row count, and memory holds
no rows.  Bucketing a segment is O(rows), with no sort of the rows:
:func:`first_seen` finds each distinct code's first row with a reverse
scatter into a table sized by the segment's own codes, never by the
catalog's tables.

Bit-exactness: a query must return the very floats that
:meth:`repro.profiler.records.ProfileResult.aggregate`'s row-order loop
returns over the concatenated records of every run, tie order included.
``np.bincount`` adds weights in input order, so a running sum is
continued by a ``bincount`` over ``[one row per bucket carrying its
total] ++ the new rows``: each bucket then sees ``((total + r1) + r2) +
…``, the addition sequence of a single loop over all rows.  Adding a
per-segment ``bincount`` to the old totals would compute ``total + (r1 +
r2 + …)`` instead and differ in the last bits.  ``np.sum`` and
``np.add.reduce`` sum pairwise and are never used for these values.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Sequence

import numpy as np

from repro.profiler.records import MethodAggregate

if TYPE_CHECKING:
    from repro.store.columns import RunColumns

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

#: Context codes are int32, so a (method, context) pair packs into one
#: int64 key as ``method << 32 | context``.
_PAIR_SHIFT = 32
_CONTEXT_MASK = (1 << _PAIR_SHIFT) - 1


def first_seen(codes: "np.ndarray") -> tuple["np.ndarray", "np.ndarray"]:
    """The distinct non-negative ``codes`` in first-seen order, and each
    row's index into them.

    O(rows) plus a sort of the distinct codes only.  Positions are
    scattered in *reverse* row order: fancy-index assignment applies
    writes in index order, so each code's slot keeps its first row.
    The table spans ``codes.max() + 1`` slots.
    """
    n = len(codes)
    size = int(codes.max()) + 1 if n else 0
    first = np.full(size, n, dtype=np.intp)
    first[codes[::-1]] = np.arange(n - 1, -1, -1, dtype=np.intp)
    present = np.flatnonzero(first < n)
    distinct = present[np.argsort(first[present])]
    local = np.empty(size, dtype=np.intp)
    local[distinct] = np.arange(len(distinct), dtype=np.intp)
    return distinct, local[codes]


class RunningSums:
    """Row counts and column sums per integer key, continued run by run.

    Buckets are numbered in the order their key first appears in the
    rows folded so far: the order the aggregate tables list them in
    before their stable energy sort.
    """

    __slots__ = ("fields", "bucket", "keys", "calls", "sums")

    def __init__(self, fields: tuple[str, ...]) -> None:
        self.fields = fields
        self.bucket: dict[int, int] = {}
        self.keys = np.zeros(0, dtype=np.int64)
        self.calls = np.zeros(0, dtype=np.int64)
        self.sums = {name: np.zeros(0) for name in fields}

    def add(
        self, keys: "np.ndarray", rows: "np.ndarray", cols: "RunColumns"
    ) -> None:
        """Continue every bucket with ``cols``' rows.

        ``keys`` are the segment's distinct keys in first-seen order and
        ``rows`` each row's index into them (see :func:`first_seen`).
        """
        bucket = self.bucket
        to_bucket = np.fromiter(
            (bucket.setdefault(key, len(bucket)) for key in keys.tolist()),
            dtype=np.intp,
            count=len(keys),
        )
        rows = to_bucket[rows]
        n, old = len(bucket), len(self.calls)
        bincount, concatenate = np.bincount, np.concatenate
        calls = bincount(rows, minlength=n)
        calls[:old] += self.calls
        self.calls = calls
        # A fresh fold has nothing to carry: bincount the rows alone.
        if old:
            rows = concatenate([np.arange(old), rows])
        for name in self.fields:
            weights = getattr(cols, name)
            if old:
                weights = concatenate([self.sums[name], weights])
            self.sums[name] = bincount(rows, weights=weights, minlength=n)
        self.keys = np.fromiter(bucket, dtype=np.int64, count=n)

    def dense(self, name: str | None, size: int) -> "np.ndarray":
        """One sum (``None``: the row counts) indexed by key, 0 if unseen."""
        values = self.calls if name is None else self.sums[name]
        out = np.zeros(size, dtype=values.dtype)
        out[self.keys] = values
        return out


class StoreFolds:
    """Every store query's reductions over a prefix of the catalog's runs.

    ``keys`` names each folded run (its catalog row and its segment
    file's identity).  The folds hold intern codes only, and names are
    looked up in the catalog's tables at query time, so they stay valid
    while the catalog's run list only appends to ``keys``.
    """

    def __init__(self) -> None:
        self.keys: list[Hashable] = []
        self.rows = 0
        self.by_method = RunningSums(AGGREGATE_FIELDS)
        self.by_pair = RunningSums(AGGREGATE_FIELDS)
        self.by_context = RunningSums(("exclusive_package",))
        self.trend: list["np.ndarray"] = []

    def extends(self, keys: Sequence[Hashable]) -> bool:
        """Whether a catalog with these runs only appends to the folds."""
        return keys[: len(self.keys)] == self.keys

    def add(self, key: Hashable, cols: "RunColumns") -> None:
        """Fold one run's segment."""
        methods, method_rows = first_seen(cols.method_code)
        contexts, context_rows = first_seen(cols.context_code)
        self.by_method.add(methods, method_rows, cols)
        self.by_context.add(contexts, context_rows, cols)
        # Pairs are bucketed over local method × local context indices;
        # their keys are global, so a carried bucket stays valid.
        pairs, pair_rows = first_seen(
            method_rows * len(contexts) + context_rows
        )
        pair_methods, pair_contexts = np.divmod(pairs, max(len(contexts), 1))
        pair_keys = (
            methods[pair_methods].astype(np.int64) << _PAIR_SHIFT
        ) | contexts[pair_contexts]
        self.by_pair.add(pair_keys, pair_rows, cols)
        self.trend.append(
            np.bincount(cols.method_code, weights=cols.package)
        )
        self.rows += len(cols)
        self.keys.append(key)

    def aggregates(
        self, methods: list[str], contexts: list[str], by_context: bool
    ) -> "list[MethodAggregate]":
        """Every method's (or method × context's) totals, energy-descending.

        ``methods``/``contexts`` are the catalog's current string tables.
        """
        if by_context:
            sums = self.by_pair
            labels = [
                (methods[key >> _PAIR_SHIFT], contexts[key & _CONTEXT_MASK])
                for key in sums.keys.tolist()
            ]
        else:
            sums = self.by_method
            labels = [(methods[key], "") for key in sums.keys.tolist()]
        return method_aggregates(labels, sums.calls, sums.sums)

    def trend_matrix(self, n_methods: int) -> "np.ndarray":
        """A fresh runs × methods matrix of package joules."""
        matrix = np.zeros((len(self.trend), n_methods))
        for i, row in enumerate(self.trend):
            matrix[i, : len(row)] = row
        return matrix


def method_aggregates(
    labels: list[tuple[str, str]], calls: "np.ndarray", sums: dict
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
