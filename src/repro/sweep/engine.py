"""The shared project-sweep engine.

One engine serves both ``Analyzer.analyze_project`` and
``Optimizer.optimize_project``: it walks every ``.py`` under a project
(:func:`project_files`), hashes each file, serves content-hash cache
hits, hands the misses to the
:class:`~repro.sweep.supervisor.SweepSupervisor`, writes the payloads
it returns back to the cache, and merges everything **deterministically**
— results are keyed and ordered exactly as the old serial loops ordered
them, so parallel output is byte-identical to serial output.

Division of labor per file:

* parent process — reads bytes once, decodes UTF-8, computes the cache
  key, serves hits, writes back misses;
* supervisor — decides how many workers to run, runs the misses
  (serially in-process, or through a supervised
  ``ProcessPoolExecutor``), and owns the resume journal;
* worker process — rebuilds the analyzer/optimizer from the picklable
  :class:`~repro.sweep.jobs.SweepJob` in its initializer (rule classes
  travel by reference), then turns ``(path, source)`` work items into
  JSON payloads.

Failure semantics: unreadable (``OSError``), undecodable
(``UnicodeDecodeError``) and unparseable (``SyntaxError``) files
degrade per the job's policy — empty findings for the analyzer, a
skipped entry for the optimizer.  Files that crash, hang, or exhaust a
worker are retried and then **quarantined** (same degradation, plus an
entry in :attr:`SweepEngine.last_quarantine` and the on-disk
``quarantine.json`` report).  A sweep interrupted by SIGINT/SIGTERM
journals its completed payloads and raises
:class:`~repro.sweep.supervisor.SweepInterrupted`; re-running with
``SweepOptions(resume=True)`` completes it with byte-identical output.
Never a crashed sweep.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path
from typing import Sequence

from repro.sweep.cache import SweepCache, content_key
from repro.sweep.jobs import SweepJob
from repro.sweep.supervisor import (
    QUARANTINED,
    QuarantineReport,
    SweepJournal,
    SweepOptions,
    SweepSupervisor,
)

#: Directory names never worth sweeping: generated bytecode, PEPO's own
#: cache, VCS internals, tool caches, and vendored environments.  A
#: sweep that descends into ``__pycache__`` re-analyzes stale copies of
#: files it already analyzed; one that descends into ``.pepo_cache``
#: would analyze its own cache.
DEFAULT_EXCLUDE_DIRS = frozenset(
    {
        "__pycache__",
        ".pepo_cache",
        ".git",
        ".hg",
        ".svn",
        ".tox",
        ".nox",
        ".venv",
        "venv",
        ".eggs",
        ".mypy_cache",
        ".pytest_cache",
        "node_modules",
    }
)


def project_files(root: str | Path, exclude: Sequence[str] = ()) -> list[Path]:
    """Every ``.py`` file under ``root``, sorted, that a sweep visits.

    Files below a :data:`DEFAULT_EXCLUDE_DIRS` directory are skipped;
    only directories below ``root`` count, so a project that itself
    sits under ``venv/`` is still walked.  Each ``exclude`` glob
    (fnmatch) is matched against the root-relative posix path, against
    that path as a directory prefix, and against every single path
    component, so ``build`` prunes any ``build/`` directory,
    ``repro/unopt`` prunes that subtree, and ``*_pb2.py`` prunes
    generated modules anywhere.
    """
    root = Path(root)

    def excluded(path: Path) -> bool:
        relative = path.relative_to(root)
        parts = relative.parts
        if any(part in DEFAULT_EXCLUDE_DIRS for part in parts[:-1]):
            return True
        rel_posix = relative.as_posix()
        return any(
            fnmatch(rel_posix, pattern)
            # A pattern naming a directory prunes its whole subtree.
            or fnmatch(rel_posix, pattern.rstrip("/") + "/*")
            or any(fnmatch(part, pattern) for part in parts)
            for pattern in exclude
        )

    return sorted(path for path in root.rglob("*.py") if not excluded(path))


#: On-disk name of the per-kind resume journal under the cache root.
JOURNAL_NAME = "{kind}-journal.json"

#: On-disk name of the quarantine report under the cache root.
QUARANTINE_NAME = "quarantine.json"


@dataclass(frozen=True)
class SweepStats:
    """Accounting for one sweep (exposed for benches and tests)."""

    files: int
    cache_hits: int
    cache_misses: int
    io_errors: int
    jobs: int
    quarantined: int = 0
    retries: int = 0
    pool_restarts: int = 0
    timeouts: int = 0
    resumed: int = 0
    cache_evictions: int = 0
    serial_fallback: str | None = None

    @property
    def skipped_unreadable(self) -> int:
        """Files the sweep degraded to empty results because their bytes
        could not be read (``OSError``) or decoded (``UnicodeDecodeError``).

        The merge maps them through the job's degradation policy — empty
        findings for the analyzer — so without this count a sweep that
        silently skipped half the tree would look like a clean pass.
        The CLI warns on stderr whenever it is non-zero.
        """
        return self.io_errors


class SweepEngine:
    """Parallel, incremental, fault-tolerant sweep over a project tree.

    Parameters
    ----------
    jobs:
        Worker processes; ``None``/``0``/``1`` sweeps serially in this
        process.  Parallel merge order is identical to serial order.
    cache:
        Reuse/store per-file results under ``.pepo_cache/`` keyed by
        (file content hash, rule-registry fingerprint, options).
    cache_dir:
        Cache root override; default is ``<project>/.pepo_cache``.
    exclude:
        Extra glob patterns skipped on top of
        :data:`DEFAULT_EXCLUDE_DIRS` (see :func:`project_files`).
    options:
        Supervision knobs (per-file timeout, retry budget, worker
        recycling, resume, fault injection); see
        :class:`~repro.sweep.supervisor.SweepOptions`.
    """

    def __init__(
        self,
        jobs: int | None = None,
        cache: bool = False,
        cache_dir: str | Path | None = None,
        exclude: Sequence[str] = (),
        options: SweepOptions | None = None,
    ) -> None:
        if jobs is not None and jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {jobs}")
        self._jobs = jobs
        self._cache_enabled = cache
        self._cache_dir = cache_dir
        self._exclude = tuple(exclude)
        self._options = options or SweepOptions()
        self.last_stats: SweepStats | None = None
        self.last_quarantine: QuarantineReport | None = None
        #: Merged self-profile of the most recent sweep when
        #: ``SweepOptions.self_profile`` was set, else None.  Parallel
        #: sweeps capture worker processes via the ``PEPO_TRACE`` env
        #: hook (records carry worker PIDs); serial sweeps trace the
        #: in-process supervisor loop directly.
        self.last_profile = None

    def run(self, project_dir: str | Path, job: SweepJob) -> dict[str, object]:
        """Sweep every ``.py`` under ``project_dir`` through ``job``."""
        paths = project_files(project_dir, self._exclude)
        # Journal and quarantine report live under the cache root even
        # when result caching is off — they are sweep state, not cached
        # results, and ``--resume`` must work either way.
        state = SweepCache.for_project(project_dir, self._cache_dir)
        cache = state if self._cache_enabled else None
        fingerprint = job.fingerprint()
        results: dict[str, object] = {}
        misses: list[tuple[str, str, str]] = []  # path, source, key
        hits = 0
        io_errors = 0
        # Concurrent sweeps of one tree share the cache under a shared
        # lock; ``clear()`` takes it exclusively, so a sweep can never
        # have the tree deleted out from under its writes.
        lock = cache.lock() if cache is not None else nullcontext(False)
        with lock:
            for path in paths:
                name = str(path)
                try:
                    content = path.read_bytes()
                    source = content.decode("utf-8")
                except (OSError, UnicodeDecodeError):
                    io_errors += 1
                    results[name] = job.decode(name, {"error": "io"})
                    continue
                key = content_key(fingerprint, content)
                if cache is not None:
                    payload = cache.get(job.kind, key)
                    if payload is not None:
                        hits += 1
                        results[name] = job.decode(name, payload)
                        continue
                misses.append((name, source, key))

            supervisor = SweepSupervisor(
                job,
                workers=self._jobs or 1,
                options=self._options,
                journal=SweepJournal(
                    state.root / JOURNAL_NAME.format(kind=job.kind), fingerprint
                ),
            )
            try:
                payloads = supervisor.run(misses)
            finally:
                self.last_profile = supervisor.profile
            for (name, _source, key), payload in zip(misses, payloads):
                # Quarantine payloads are never cached: a crash is
                # environment-dependent and the next sweep must retry.
                if payload.get("error") == QUARANTINED:
                    results[name] = job.decode(name, payload)
                    continue
                if cache is not None:
                    cache.put(job.kind, key, payload)
                    self._inject_cache_fault(cache, job.kind, key, name)
                results[name] = job.decode(name, payload)

        # A completed sweep (re)writes the quarantine report: ``pepo
        # cache stats`` lists it, and a stale report from an earlier
        # sweep never outlives a clean run.
        quarantine = supervisor.quarantine.sorted()
        quarantine_path = state.root / QUARANTINE_NAME
        if quarantine:
            quarantine.save(quarantine_path)
        else:
            try:
                quarantine_path.unlink()
            except OSError:
                pass

        self.last_quarantine = quarantine
        self.last_stats = SweepStats(
            files=len(paths),
            cache_hits=hits,
            cache_misses=len(misses) - supervisor.resumed,
            io_errors=io_errors,
            jobs=supervisor.workers,
            quarantined=len(quarantine),
            retries=supervisor.retries,
            pool_restarts=supervisor.pool_restarts,
            timeouts=supervisor.timeouts,
            resumed=supervisor.resumed,
            cache_evictions=cache.evictions if cache is not None else 0,
            serial_fallback=supervisor.serial_fallback,
        )
        # Merge in the exact order the serial loops used (sorted Path
        # order), dropping entries the job declined (decode -> None).
        return {
            str(path): results[str(path)]
            for path in paths
            if results.get(str(path)) is not None
        }

    def _inject_cache_fault(
        self, cache: SweepCache, kind: str, key: str, name: str
    ) -> None:
        """Chaos hook: damage this file's just-written cache entry."""
        faults = self._options.faults
        if faults is None:
            return
        fault = faults.cache_fault(name)
        if fault is not None:
            from repro.resilience.faults import corrupt_cache_entry

            corrupt_cache_entry(cache.entry_path(kind, key), fault)


def available_cpus() -> int:
    """CPUs this process may actually run on.

    ``sched_getaffinity`` honors container/cgroup CPU masks that
    ``os.cpu_count()`` ignores; platforms without it fall back to the
    plain count.  Never less than 1.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def clamp_jobs(jobs: int | None) -> int:
    """Cap a requested worker count at the usable CPU count.

    Deliberate split of responsibility: :class:`SweepEngine` takes
    ``jobs`` at face value (so tests can exercise the pool on any box,
    see ``SweepSupervisor._choose_workers``), while callers answering
    to a human — the CLI commands and ``pepo bench sweep`` — route the
    flag through here first, because workers beyond the machine's
    cores buy only process overhead.  ``--jobs 4`` means *up to* 4.
    """
    if jobs is None or jobs <= 1:
        return 1
    return min(jobs, available_cpus())

