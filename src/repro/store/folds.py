"""Running reductions over a run store, folded in one segment at a time.

A :class:`StoreFolds` holds, for a prefix of the catalog's runs, every
reduction the store's queries read:

* per method: calls and the sums of the :data:`~repro.store.columns.
  AGGREGATE_FIELDS`, buckets numbered in first-seen row order;
* the same per (method, context) pair, for ``top_methods(by_context=True)``;
* per context: exclusive package joules and row counts;
* per run: package joules by method — one row of the trend matrix.

Folding a run reads its segment once and keeps only those sums, so a
query costs O(runs × methods) whatever the row count, and memory holds
no rows.

Bit-exactness: a query must return the very floats that one reduction
over the concatenated rows of every run returns.  ``np.bincount`` adds
weights in input order, so a running sum is continued by a
``bincount`` over ``[one row per bucket carrying its total] ++ the new
rows``: each bucket then sees ``((total + r1) + r2) + …``, the addition
sequence of a single ``bincount`` over all rows.  Adding a per-segment
``bincount`` to the old totals would compute ``total + (r1 + r2 + …)``
instead and differ in the last bits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Sequence

import numpy as np

from repro.store.columns import AGGREGATE_FIELDS, RunColumns, method_aggregates

if TYPE_CHECKING:
    from repro.profiler.records import MethodAggregate

#: Context codes are int32, so a (method, context) pair packs into one
#: int64 key as ``method << 32 | context``.
_PAIR_SHIFT = 32
_CONTEXT_MASK = (1 << _PAIR_SHIFT) - 1


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

    def add(self, keys: "np.ndarray", cols: RunColumns) -> None:
        """Continue every bucket with ``cols``' rows, keyed by ``keys``."""
        unique, first, inverse = np.unique(
            keys, return_index=True, return_inverse=True
        )
        to_bucket = np.empty(len(unique), dtype=np.intp)
        in_first_seen_order = np.argsort(first).tolist()
        for u in in_first_seen_order:
            to_bucket[u] = self.bucket.setdefault(
                int(unique[u]), len(self.bucket)
            )
        rows = to_bucket[inverse]
        n = len(self.bucket)
        bincount, concatenate = np.bincount, np.concatenate
        carried = concatenate([np.arange(len(self.calls)), rows])
        calls = bincount(rows, minlength=n)
        calls[: len(self.calls)] += self.calls
        self.calls = calls
        for name in self.fields:
            self.sums[name] = bincount(
                carried,
                weights=concatenate([self.sums[name], getattr(cols, name)]),
                minlength=n,
            )
        self.keys = np.fromiter(self.bucket, dtype=np.int64, count=n)

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

    def add(self, key: Hashable, cols: RunColumns) -> None:
        """Fold one run's segment."""
        methods = cols.method_code.astype(np.int64)
        self.by_method.add(methods, cols)
        self.by_pair.add((methods << _PAIR_SHIFT) | cols.context_code, cols)
        self.by_context.add(cols.context_code, cols)
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
