"""``repro.sweep`` — parallel, incremental, fault-tolerant project sweeps.

The shared engine behind ``Analyzer.analyze_project`` and
``Optimizer.optimize_project`` (and therefore ``pepo suggest`` /
``pepo optimize`` / ``pepo check`` on directories):

* :mod:`repro.sweep.engine` — walk + cache + deterministic merge
  (parallel output is byte-identical to serial);
* :mod:`repro.sweep.supervisor` — supervised execution: per-file
  timeouts with a watchdog, ``BrokenProcessPool`` recovery, poison-file
  quarantine shared by serial and parallel sweeps, and SIGINT/SIGTERM
  journaling with byte-identical ``--resume``;
* :mod:`repro.sweep.cache` — the ``.pepo_cache/`` content-hash result
  cache, keyed by (file content, rule-registry fingerprint, options),
  with checksummed entries, auto-evict on corruption, and an advisory
  lockfile;
* :mod:`repro.sweep.jobs` — picklable per-file work units for the
  analyzer and optimizer.
"""

from repro.sweep.cache import (
    CACHE_DIR_NAME,
    CACHE_FORMAT,
    CacheStats,
    SweepCache,
    content_key,
    payload_checksum,
)
from repro.sweep.engine import (
    DEFAULT_EXCLUDE_DIRS,
    SweepEngine,
    SweepStats,
    available_cpus,
    clamp_jobs,
)
from repro.sweep.jobs import AnalyzeJob, OptimizeJob, SweepJob
from repro.sweep.supervisor import (
    QuarantineEntry,
    QuarantineReport,
    SweepInterrupted,
    SweepJournal,
    SweepOptions,
    SweepSupervisor,
)

__all__ = [
    "AnalyzeJob",
    "CACHE_DIR_NAME",
    "CACHE_FORMAT",
    "CacheStats",
    "DEFAULT_EXCLUDE_DIRS",
    "OptimizeJob",
    "QuarantineEntry",
    "QuarantineReport",
    "SweepCache",
    "SweepEngine",
    "SweepInterrupted",
    "SweepJob",
    "SweepJournal",
    "SweepOptions",
    "SweepStats",
    "SweepSupervisor",
    "available_cpus",
    "clamp_jobs",
    "content_key",
    "payload_checksum",
]
