"""Optional numpy fast paths for the profiler's hot loops.

Everything in :mod:`repro.profiler` must keep working on a bare
interpreter (the sweep workers, the settrace CI job and the subprocess
bootstrap all run numpy-free), so numpy is strictly an accelerator
here, never a dependency.  This module is the single gate:

* :func:`numpy_or_none` returns the imported module when numpy is
  available *and* ``PEPO_PURE_PYTHON`` is unset; every fast path keys
  off it and falls back to the original pure-Python loop otherwise.
* :class:`ProfileColumns` is the struct-of-arrays view over a record
  list — interned method/context string tables plus flat float/int
  columns — shared with :mod:`repro.store`, whose ``.npz`` segments are
  exactly these columns on disk.
* :func:`aggregate_columns` is the vectorized replacement for
  ``ProfileResult.aggregate()``'s bucket loop.
* :func:`parse_float_columns` is the one numeric converter behind
  :func:`repro.profiler.records.parse_result_txt`: numpy arrays when
  numpy is passed in (the run store always passes it), per-value
  ``float()`` lists otherwise.

Bit-exactness contract (enforced by tests/profiler/
test_columnar_parity.py): every fast path must produce *identical*
floats to the pure loop it replaces, not merely close ones, so a
``result.txt`` written from either path is byte-for-byte the same.
The accumulation primitives are chosen for that property:

* ``np.bincount(codes, weights=w)`` adds weights in input order into
  each bucket — the same IEEE-754 addition sequence as the Python
  per-bucket running sums.
* ``np.cumsum`` is a sequential running sum.
* ``np.sum``/``np.add.reduce`` use pairwise summation and are therefore
  **banned** for any parity-gated value.
"""

from __future__ import annotations

import math
import os
from typing import TYPE_CHECKING, Sequence

from repro.rapl.domains import Domain

if TYPE_CHECKING:
    from repro.profiler.records import MethodAggregate, MethodRecord

#: Set to any non-empty value to force every fast path off — used by
#: the parity tests and by operators debugging a suspected numpy skew.
PURE_ENV = "PEPO_PURE_PYTHON"

_numpy = None
_numpy_checked = False


def numpy_or_none():
    """The numpy module, or ``None`` when absent or explicitly disabled.

    The import result is cached; the ``PEPO_PURE_PYTHON`` override is
    re-read on every call so tests can flip it per-case.
    """
    global _numpy, _numpy_checked
    if os.environ.get(PURE_ENV):
        return None
    if not _numpy_checked:
        try:
            import numpy
        except ImportError:
            _numpy = None
        else:
            _numpy = numpy
        _numpy_checked = True
    return _numpy


class ProfileColumns:
    """Struct-of-arrays view over a sequence of method records.

    ``methods`` / ``contexts`` are interned string tables in first-seen
    order; the ``*_code`` columns index into them.  Float columns carry
    exactly the values the corresponding :class:`MethodRecord`
    properties expose, so reductions over the columns see the same
    numbers the pure loops see.
    """

    __slots__ = (
        "methods",
        "contexts",
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


def build_columns(
    records: Sequence["MethodRecord"],
    np=None,
    cls: type[ProfileColumns] = ProfileColumns,
) -> ProfileColumns | None:
    """Fold a record list into :class:`ProfileColumns` (one pass).

    Returns ``None`` when numpy is unavailable/disabled — callers fall
    back to the pure loops.  ``np``/``cls`` let :mod:`repro.store`
    (which requires numpy outright and is not subject to the
    ``PEPO_PURE_PYTHON`` gate) reuse the same fold for its own column
    type.
    """
    if np is None:
        np = numpy_or_none()
    if np is None:
        return None
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
        code = method_ids.setdefault(r.method, len(method_ids))
        mcodes.append(code)
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


def aggregate_columns(
    cols: ProfileColumns, by_context: bool = False, np=None
) -> "list[MethodAggregate]":
    """Vectorized equivalent of ``ProfileResult.aggregate``'s bucket loop.

    Produces the same aggregates, in the same first-seen bucket order,
    with bit-identical running sums (``np.bincount`` accumulates in
    input order).  The caller applies the shared energy-descending sort.
    """
    from repro.profiler.records import MethodAggregate

    if np is None:
        np = numpy_or_none()
    assert np is not None, "aggregate_columns requires numpy"
    n = len(cols)
    if n == 0:
        return []
    if by_context:
        n_contexts = len(cols.contexts)
        codes = cols.method_code.astype(np.int64) * n_contexts
        codes += cols.context_code
        n_buckets = len(cols.methods) * n_contexts
    else:
        codes = cols.method_code.astype(np.int64)
        n_buckets = len(cols.methods)
    calls = np.bincount(codes, minlength=n_buckets)
    wall = np.bincount(codes, weights=cols.wall, minlength=n_buckets)
    cpu = np.bincount(codes, weights=cols.cpu, minlength=n_buckets)
    package = np.bincount(codes, weights=cols.package, minlength=n_buckets)
    core = np.bincount(codes, weights=cols.core, minlength=n_buckets)
    exclusive = np.bincount(
        codes, weights=cols.exclusive_package, minlength=n_buckets
    )
    suspects = np.bincount(
        codes, weights=cols.suspect, minlength=n_buckets
    )
    # First-seen bucket order, matching the dict-insertion order of the
    # pure loop (the final sort is stable, so ties keep this order).
    # Scatter-assign positions in *reverse*: fancy-index assignment
    # applies writes in index order, so each bucket keeps its first
    # occurrence — O(n), no sort (np.unique's sort dominates at 1M+).
    first = np.full(n_buckets, -1, dtype=np.int64)
    first[codes[::-1]] = np.arange(n - 1, -1, -1, dtype=np.int64)
    present = np.flatnonzero(first >= 0)
    order = present[np.argsort(first[present])]
    out: list[MethodAggregate] = []
    for code in order.tolist():
        if by_context:
            method = cols.methods[code // n_contexts]
            context = cols.contexts[code % n_contexts]
        else:
            method = cols.methods[code]
            context = ""
        out.append(
            MethodAggregate(
                method=method,
                calls=int(calls[code]),
                wall_seconds=float(wall[code]),
                cpu_seconds=float(cpu[code]),
                package_joules=float(package[code]),
                core_joules=float(core[code]),
                exclusive_package_joules=float(exclusive[code]),
                suspect_calls=int(suspects[code]),
                context=context,
            )
        )
    return out


def parse_float_columns(
    columns: "dict[str, list[str]]",
    linenos: Sequence[int],
    path: object,
    np=None,
) -> dict:
    """Batch-convert the numeric ``result.txt`` columns, validating energy.

    ``columns`` maps column name → list of raw strings (one per data
    line).  With ``np`` each column comes back as a float64 array (one
    vectorized conversion); without it as a list of Python floats
    (per-value ``float()``).  Both are correctly-rounded decimal→binary
    conversions, so the values are identical.

    Unparseable values, and NaN, infinite or negative values in the
    energy columns, raise a line-numbered
    :class:`~repro.profiler.records.ResultFileError` whose message is
    the same byte for byte on either path.
    """
    from repro.profiler.records import ResultFileError

    isfinite = math.isfinite
    out: dict = {}
    for name, raw in columns.items():
        try:
            if np is None:
                values = [float(token) for token in raw]
            else:
                values = np.asarray(raw, dtype=np.float64)
        except ValueError:
            # Pinpoint the offending line the slow way; conversion
            # errors are the cold path.
            for i, token in enumerate(raw):
                try:
                    float(token)
                except ValueError:
                    raise ResultFileError(
                        f"{path}:{linenos[i]}: could not parse "
                        f"{name} value {token!r}"
                    ) from None
            raise  # pragma: no cover - asarray failed, floats didn't
        if name in ("package_joules", "core_joules"):
            if np is None:
                bad = [
                    i
                    for i, value in enumerate(values)
                    if not (value >= 0.0 and isfinite(value))
                ]
            else:
                mask = ~np.isfinite(values) | (values < 0.0)
                bad = np.flatnonzero(mask).tolist()
            if bad:
                raise ResultFileError(
                    f"{path}:{linenos[bad[0]]}: {name} must be a finite "
                    f"non-negative number, got {raw[bad[0]]!r}"
                )
        out[name] = values
    return out
