"""Columnar profile analytics: the run store and its reductions.

``repro.store`` turns many profiling runs — live
:class:`~repro.profiler.records.ProfileResult` objects, ``result.txt``
files, subprocess spool directories — into one queryable columnar
dataset: an append-only SQLite catalog (provenance + globally interned
method/context string tables) plus per-run compressed ``.npz`` column
segments (:mod:`repro.store.columns`).  Each segment is folded once,
in O(rows), into running numpy reductions (:mod:`repro.store.folds`,
the store's one reduction); top-N hot methods, per-context exclusive
totals, fleet trends, Tukey-fence outlier runs, per-rule savings
estimates and Hoeffding drift flags all read those folds, bit-exactly
equal to :meth:`~repro.profiler.records.ProfileResult.aggregate`'s
row-order loop over every run's records.

Unlike the profiler, which runs without numpy, this package requires
numpy: the vectorized reductions are the reason it exists.
"""

from repro.store.columns import RunColumns
from repro.store.drift import DriftFlag, MethodDriftDetector, detect_drift
from repro.store.runstore import (
    ContextTotal,
    OutlierRun,
    RuleSaving,
    RunInfo,
    RunStore,
    StoreStats,
)

#: Default store location, next to the sweep cache.
DEFAULT_STORE_DIR = ".pepo_cache/store"

__all__ = [
    "DEFAULT_STORE_DIR",
    "ContextTotal",
    "DriftFlag",
    "MethodDriftDetector",
    "OutlierRun",
    "RuleSaving",
    "RunColumns",
    "RunInfo",
    "RunStore",
    "StoreStats",
    "detect_drift",
]
