"""Supervised sweep execution: survive hostile files instead of dying.

:class:`SweepSupervisor` runs a sweep's files to completion and treats
each *file* as the unit of failure.  Serial and parallel sweeps share
one per-file executor (:func:`_run_items`, which turns any exception
into an inline failure marker) and one strike/requeue routine
(``SweepSupervisor._dispatch_failure``), so both quarantine the same
files for the same reasons after the same number of strikes:

* **poison quarantine** — a file that fails more than
  ``SweepOptions.max_retries`` times (crash, hang, ``MemoryError``,
  ``RecursionError``, or any analyzer exception) is quarantined: the
  sweep completes, the file degrades per the job's policy (empty
  findings / skipped entry), and the quarantine report records the
  path, reason, and strike count;
* **watchdog** — every in-flight chunk carries a wall-clock deadline
  (the per-file budget times the chunk length).  A parallel overrun
  kills and recycles the worker pool: a single-file chunk is charged a
  ``hang`` strike, a multi-file chunk reruns its files one per chunk
  without strikes so the next overrun names its culprit, and
  collateral in-flight files are resubmitted unharmed.  Serial sweeps
  cannot preempt an in-process stall, so they detect the overrun after
  the fact and discard the late result;
* **crash recovery** — a ``BrokenProcessPool`` restarts the pool with
  exponential backoff (:data:`DEFAULT_SWEEP_POLICY`).  When exactly one
  file was in flight the crash is charged to it; when several were,
  none is charged and all are retried **in isolation** (one at a time)
  so the next crash is unambiguous.  Serial sweeps see the
  :class:`~repro.resilience.faults.InjectedWorkerCrash` stand-in
  through the executor instead;
* **graceful interrupt** — SIGINT/SIGTERM (or the deterministic
  ``SweepFaultPlan.interrupt_after_files`` test hook) stops submission,
  kills the pool, flushes every completed payload to an atomic journal
  (:class:`~repro.resilience.checkpoint.CheckpointStore` idiom), and
  raises :class:`SweepInterrupted`; a later ``--resume`` sweep replays
  the journal and produces output byte-identical to an uninterrupted
  run.

Parallel sweeps dispatch files in **chunks**, sized from the pending-file
and worker counts (``SweepSupervisor._pick_chunk_size``), to amortize
submit/pickle/collect overhead on cold sweeps; serial sweeps run one
file at a time in-process.
"""

from __future__ import annotations

import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.faults import (
    InjectedWorkerCrash,
    SweepFaultPlan,
    apply_worker_fault,
)
from repro.resilience.policy import ResiliencePolicy

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

    from repro.sweep.jobs import SweepJob

#: ``payload["error"]`` marker for files the supervisor gave up on.
QUARANTINED = "quarantined"

#: Backoff schedule between pool restarts / file retries.  Short base —
#: sweep retries are cheap compared to hardware reads — but the same
#: exponential discipline as the measurement layer.
DEFAULT_SWEEP_POLICY = ResiliencePolicy(
    max_retries=0,
    backoff_base_seconds=0.02,
    backoff_max_seconds=0.5,
    jitter=0.0,
)

#: Supervisor wake-up interval: watchdog and interrupt-check granularity.
POLL_SECONDS = 0.05


class SweepInterrupted(KeyboardInterrupt):
    """A sweep stopped early on SIGINT/SIGTERM after journaling.

    Subclasses ``KeyboardInterrupt`` so un-caught interrupts keep their
    conventional shell semantics, while the CLI can catch this
    specifically and point at ``--resume``.
    """

    def __init__(
        self,
        message: str,
        journal_path: Path | None = None,
        completed: int = 0,
        total: int = 0,
    ) -> None:
        super().__init__(message)
        self.journal_path = journal_path
        self.completed = completed
        self.total = total


@dataclass(frozen=True)
class SweepOptions:
    """Supervision knobs for one sweep (picklable, provenance-friendly).

    Parameters
    ----------
    timeout_seconds:
        Wall-clock budget per file.  In parallel sweeps the watchdog
        kills and recycles the worker when it expires; in serial sweeps
        the overrun is detected after the fact and the result
        discarded.  Either way the file takes a ``hang`` strike.
        ``None`` disables the watchdog.
    max_retries:
        Extra attempts per file after its first failure; a file failing
        ``max_retries + 1`` times is quarantined, whether the sweep is
        serial or parallel.
    resume:
        Complete a previously interrupted sweep from its journal
        instead of starting over.
    faults:
        Chaos-testing fault plan (see
        :class:`~repro.resilience.faults.SweepFaultPlan`); ``None``
        (the default) injects nothing.
    self_profile:
        When True, the sweep engine profiles its own execution: worker
        processes bootstrap a thread/task-following tracer (via the
        ``PEPO_TRACE`` env hook) and ship their records back, and
        serial sweeps trace in-process.  The merged profile lands on
        ``SweepEngine.last_profile``.

    Retry/restart backoff follows :data:`DEFAULT_SWEEP_POLICY`.  Chunk
    size is not a knob: the supervisor derives it from the file and
    worker counts, and failure isolation stays per *file* whatever the
    chunk (see :class:`SweepSupervisor`).
    """

    timeout_seconds: float | None = None
    max_retries: int = 2
    resume: bool = False
    faults: SweepFaultPlan | None = None
    self_profile: bool = False

    def __post_init__(self) -> None:
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError(
                f"timeout_seconds must be positive: {self.timeout_seconds}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0: {self.max_retries}")


@dataclass(frozen=True)
class QuarantineEntry:
    """One poisoned file: what happened and how many strikes it took."""

    path: str
    reason: str  # crash | hang | memory | recursion | error
    failures: int
    detail: str = ""


@dataclass
class QuarantineReport:
    """Every file a sweep gave up on, with per-file failure reasons."""

    entries: list[QuarantineEntry] = field(default_factory=list)

    FORMAT = 1

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def paths(self) -> list[str]:
        return [entry.path for entry in self.entries]

    def sorted(self) -> "QuarantineReport":
        return QuarantineReport(sorted(self.entries, key=lambda e: e.path))

    def render(self) -> str:
        from repro.views.tables import render_table

        def tail(path: str, width: int = 72) -> str:
            # Keep the end of long paths: the basename is the part a
            # reader needs, and render_table's clip keeps the head.
            return path if len(path) <= width else "…" + path[-(width - 1):]

        return render_table(
            headers=["File", "Reason", "Strikes", "Detail"],
            rows=[
                [tail(e.path), e.reason, str(e.failures), e.detail]
                for e in self.sorted().entries
            ],
            title="Quarantined files (analysis skipped):",
            max_col_width=72,
            right_align=(2,),
        )

    # -- persistence (``<cache root>/quarantine.json``) ----------------

    def save(self, path: str | Path) -> None:
        import json

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "format": self.FORMAT,
            "entries": [
                {
                    "path": e.path,
                    "reason": e.reason,
                    "failures": e.failures,
                    "detail": e.detail,
                }
                for e in self.sorted().entries
            ],
        }
        path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "QuarantineReport | None":
        import json

        try:
            document = json.loads(Path(path).read_text(encoding="utf-8"))
            entries = [
                QuarantineEntry(
                    path=item["path"],
                    reason=item["reason"],
                    failures=int(item["failures"]),
                    detail=item.get("detail", ""),
                )
                for item in document["entries"]
            ]
        except (OSError, ValueError, KeyError, TypeError):
            return None
        return cls(entries=entries)


class SweepJournal:
    """Atomic journal of completed per-file payloads, keyed by content key.

    A :class:`~repro.resilience.checkpoint.CheckpointStore` fingerprinted
    with the sweep job's fingerprint: resuming after the rule set or
    options changed discards the journal (with a warning) instead of
    splicing incompatible payloads into the merge.
    """

    def __init__(self, path: str | Path, fingerprint: str) -> None:
        self._store = CheckpointStore(
            path, meta={"kind": "sweep-journal", "fingerprint": fingerprint}
        )

    @property
    def path(self) -> Path:
        return self._store.path

    def entries(self) -> dict[str, dict]:
        return {key: value for key, value in self._store.items()}

    def write(self, entries: Mapping[str, dict]) -> None:
        self._store.put_many(dict(entries))

    def clear(self) -> None:
        self._store.clear()


def _poison_reason(error: BaseException) -> str:
    if isinstance(error, MemoryError):
        return "memory"
    if isinstance(error, RecursionError):
        return "recursion"
    if isinstance(error, InjectedWorkerCrash):
        return "crash"
    return "error"


def quarantine_payload(entry: QuarantineEntry) -> dict:
    """The payload a quarantined file contributes to the merge.

    ``SweepJob.decode`` already maps ``error`` payloads to the job's
    degradation policy (empty findings / skipped entry), so quarantined
    files merge exactly like unreadable ones — deterministically.
    """
    return {
        "error": QUARANTINED,
        "reason": entry.reason,
        "failures": entry.failures,
        "detail": entry.detail,
    }


#: Payload key that reports one file's failure inline:
#: ``{_CHUNK_FAILURE_KEY: [reason, detail]}``.  Catching per file keeps
#: one poisonous file from discarding its chunk-mates' finished work,
#: and the supervisor routes every marker — serial or parallel —
#: through the same strike/quarantine path.
_CHUNK_FAILURE_KEY = "__fail__"


def _failure(reason: str, detail: str) -> dict:
    return {_CHUNK_FAILURE_KEY: [reason, detail]}


def _run_file(
    job: "SweepJob",
    processor: object,
    faults: SweepFaultPlan | None,
    path: str,
    source: str,
    in_worker: bool,
) -> dict:
    try:
        if faults is not None:
            apply_worker_fault(faults, path, in_worker=in_worker)
        return job.run(processor, path, source)
    except Exception as error:
        return _failure(
            _poison_reason(error), f"{type(error).__name__}: {error}"
        )


def _run_items(
    job: "SweepJob",
    processor: object,
    faults: SweepFaultPlan | None,
    items: list[tuple[str, str]],
    in_worker: bool,
) -> list[dict]:
    """Run ``(path, source)`` items through ``job``, one payload each.

    Any exception — ``MemoryError``, ``RecursionError`` and
    :class:`~repro.resilience.faults.InjectedWorkerCrash` included —
    becomes that file's inline failure marker.  A crash fault in a
    worker (``in_worker=True``) still kills the whole process
    (``os._exit`` cannot be caught); the parent sees
    ``BrokenProcessPool`` and attributes it instead.
    """
    return [
        _run_file(job, processor, faults, path, source, in_worker)
        for path, source in items
    ]


# -- worker-process entry points ------------------------------------------
# Module-level so the pool can pickle them.  State is set once per
# worker by the initializer: the job's rules/transforms are rebuilt per
# process instead of pickled per task.

_WORKER_JOB = None
_WORKER_PROCESSOR = None
_WORKER_FAULTS: SweepFaultPlan | None = None


def _worker_init(job: "SweepJob", faults: SweepFaultPlan | None = None) -> None:
    global _WORKER_JOB, _WORKER_PROCESSOR, _WORKER_FAULTS
    # Fork-started workers inherit the parent's signal dispositions —
    # including the supervisor's own SIGTERM/SIGINT handlers, which
    # would swallow the watchdog's terminate() and leave a hung worker
    # sleeping.  Reset: SIGTERM kills the worker (default), SIGINT is
    # ignored (the parent coordinates interrupts and journals first).
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic hosts
        pass
    _WORKER_JOB = job
    _WORKER_PROCESSOR = job.build()
    _WORKER_FAULTS = faults
    # Self-profiling hook: a no-op unless the parent armed PEPO_TRACE
    # (SweepOptions.self_profile); never allowed to break a worker.
    from repro.profiler.subproc import maybe_bootstrap

    maybe_bootstrap()


def _worker_run_chunk(items: list[tuple[str, str]]) -> list[dict]:
    assert _WORKER_JOB is not None
    return _run_items(
        _WORKER_JOB, _WORKER_PROCESSOR, _WORKER_FAULTS, items, in_worker=True
    )


@dataclass
class _Item:
    """One file moving through the supervisor."""

    index: int
    path: str
    source: str
    key: str
    failures: int = 0
    #: Set when this file must be dispatched in a chunk of its own —
    #: a survivor of an ambiguous multi-file chunk failure, retried
    #: alone so the next failure is attributable to one file.
    solo: bool = False


class SweepSupervisor:
    """Run sweep items to completion under the fault policy above.

    ``run`` takes ``(path, source, key)`` triples and returns one
    payload per item, in submission order.  Never raises for per-file
    failures — those quarantine — only for interrupts
    (:class:`SweepInterrupted`, after journaling).
    """

    def __init__(
        self,
        job: "SweepJob",
        workers: int,
        options: SweepOptions | None = None,
        *,
        journal_path: str | Path | None = None,
        journal_seed: Mapping[str, dict] | None = None,
    ) -> None:
        self.job = job
        self.workers = max(1, workers)
        self.options = options or SweepOptions()
        self.quarantine = QuarantineReport()
        self.retries = 0
        self.pool_restarts = 0
        self.timeouts = 0
        self._journal_path = Path(journal_path) if journal_path else None
        self._journal_seed = dict(journal_seed or {})
        self._completed: dict[str, dict] = {}
        self._total = 0
        self._interrupted = False
        self._old_handlers: dict[int, object] = {}

    # -- public entry ---------------------------------------------------

    def run(self, items: Iterable[tuple[str, str, str]]) -> list[dict]:
        wrapped = [
            _Item(index, path, source, key)
            for index, (path, source, key) in enumerate(items)
        ]
        self._total = len(wrapped)
        if not wrapped:
            return []
        self._install_signal_handlers()
        try:
            if self.workers <= 1:
                return self._run_serial(wrapped)
            return self._run_parallel(wrapped)
        finally:
            self._restore_signal_handlers()

    # -- interrupt plumbing ---------------------------------------------

    def _install_signal_handlers(self) -> None:
        if threading.current_thread() is not threading.main_thread():
            return
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._old_handlers[signum] = signal.signal(
                    signum, self._handle_signal
                )
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                pass

    def _restore_signal_handlers(self) -> None:
        for signum, handler in self._old_handlers.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass
        self._old_handlers.clear()

    def _handle_signal(self, signum, frame) -> None:  # pragma: no cover
        self._interrupted = True

    def _check_interrupt(self) -> None:
        faults = self.options.faults
        if (
            faults is not None
            and faults.interrupt_after_files is not None
            and len(self._completed) >= faults.interrupt_after_files
        ):
            self._interrupted = True
        if not self._interrupted:
            return
        self._flush_journal()
        raise SweepInterrupted(
            f"sweep interrupted after {len(self._completed)} of "
            f"{self._total} pending file(s); completed work journaled",
            journal_path=self._journal_path,
            completed=len(self._completed),
            total=self._total,
        )

    def _flush_journal(self) -> None:
        if self._journal_path is None:
            return
        entries = dict(self._journal_seed)
        entries.update(self._completed)
        journal = SweepJournal(self._journal_path, self.job.fingerprint())
        journal.write(entries)

    # -- bookkeeping ----------------------------------------------------

    def _record(self, item: _Item, payload: dict, results: list) -> None:
        results[item.index] = payload
        self._completed[item.key] = payload

    def _dispatch_failure(
        self,
        item: _Item,
        reason: str,
        detail: str,
        queue: deque,
        isolation: deque,
        results: list,
    ) -> None:
        """Charge one attributed failure (a strike).

        A file past ``max_retries`` strikes is quarantined; otherwise it
        backs off and is requeued.  Crashers retry in ``isolation`` so
        repeat crashes stay attributed; everything else rejoins
        ``queue``.  Serial sweeps pass one deque as both, so every retry
        goes to its tail.
        """
        item.failures += 1
        if reason == "hang":
            self.timeouts += 1
        if item.failures > self.options.max_retries:
            entry = QuarantineEntry(
                path=item.path,
                reason=reason,
                failures=item.failures,
                detail=detail,
            )
            self.quarantine.entries.append(entry)
            self._record(item, quarantine_payload(entry), results)
            return
        self.retries += 1
        time.sleep(DEFAULT_SWEEP_POLICY.backoff_delay(item.failures - 1))
        (isolation if reason == "crash" else queue).append(item)

    def _merge_chunk(
        self,
        chunk: list[_Item],
        payloads: object,
        queue: deque,
        isolation: deque,
        results: list,
    ) -> None:
        """Fold one completed chunk reply back into the sweep.

        Per-file failure markers take the strike path; finished
        chunk-mates are recorded normally.  A malformed reply (wrong
        shape/length) is treated as unattributable unless the chunk held
        a single file.
        """
        if not isinstance(payloads, list) or len(payloads) != len(chunk):
            self._chunk_exception(
                chunk,
                "error",
                "worker returned a malformed chunk reply",
                queue,
                isolation,
                results,
            )
            return
        for item, payload in zip(chunk, payloads):
            failure = (
                payload.get(_CHUNK_FAILURE_KEY)
                if isinstance(payload, dict)
                else None
            )
            if failure is not None:
                self._dispatch_failure(
                    item, failure[0], failure[1], queue, isolation, results
                )
            else:
                self._record(item, payload, results)

    def _chunk_exception(
        self,
        chunk: list[_Item],
        reason: str,
        detail: str,
        queue: deque,
        isolation: deque,
        results: list,
    ) -> None:
        """A whole-chunk failure that is not a pool crash.

        One file: attribute it (identical to per-file dispatch).  Many
        files: the culprit is unknown, so nobody is charged a strike —
        every file reruns in a chunk of its own, where the failure
        repeats attributably.
        """
        if len(chunk) == 1:
            self._dispatch_failure(
                chunk[0], reason, detail, queue, isolation, results
            )
            return
        for item in chunk:
            item.solo = True
            queue.append(item)

    # -- serial path ----------------------------------------------------

    def _run_serial(self, items: list[_Item]) -> list[dict]:
        results: list = [None] * len(items)
        queue: deque[_Item] = deque(items)
        processor = self.job.build()
        while queue:
            self._check_interrupt()
            item = queue.popleft()
            payload = self._run_in_process(processor, item)
            self._merge_chunk([item], [payload], queue, queue, results)
        return results

    def _run_in_process(self, processor: object, item: _Item) -> dict:
        """One file through the shared executor, timed.

        In-process stalls cannot be preempted; an overrun is detected
        post hoc and the late result discarded, so serial and parallel
        sweeps quarantine the same files.
        """
        timeout = self.options.timeout_seconds
        started = time.monotonic()
        [payload] = _run_items(
            self.job,
            processor,
            self.options.faults,
            [(item.path, item.source)],
            in_worker=False,
        )
        elapsed = time.monotonic() - started
        if (
            timeout is not None
            and elapsed > timeout
            and _CHUNK_FAILURE_KEY not in payload
        ):
            return _failure(
                "hang",
                f"took {elapsed:.2f}s (limit {timeout:g}s; serial "
                "sweeps detect overruns after the fact)",
            )
        return payload

    # -- parallel path ---------------------------------------------------

    def _new_pool(self) -> "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_worker_init,
            initargs=(self.job, self.options.faults),
        )

    @staticmethod
    def _kill_pool(pool: "ProcessPoolExecutor") -> None:
        """Hard-stop a pool: SIGKILL workers, then reap the executor.

        SIGKILL rather than SIGTERM: a worker stuck in C code (or one
        that somehow still holds an inherited signal handler) cannot
        swallow it, so the watchdog's recycle is bounded by process
        teardown, not by whatever the hung worker was doing.
        """
        for process in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                process.kill()
            except Exception:  # pragma: no cover - already-dead workers
                pass
        pool.shutdown(wait=True, cancel_futures=True)

    def _chunk_deadline(self, size: int) -> float | None:
        """Watchdog deadline for a chunk: the per-file budget times the
        chunk length, so chunking never tightens a file's time budget."""
        if self.options.timeout_seconds is None:
            return None
        return time.monotonic() + self.options.timeout_seconds * size

    def _pick_chunk_size(self, total: int) -> int:
        """Files per parallel dispatch.

        About four dispatch waves per worker keeps the pool
        load-balanced near the tail while amortizing per-task
        submit/pickle overhead; the cap bounds how much work one
        crashed or hung chunk forces into one-at-a-time retries.
        """
        return max(1, min(8, -(-total // (self.workers * 4))))

    @staticmethod
    def _next_chunk(queue: "deque[_Item]", chunk_size: int) -> list[_Item]:
        chunk = [queue.popleft()]
        if chunk[0].solo:
            return chunk
        while queue and len(chunk) < chunk_size and not queue[0].solo:
            chunk.append(queue.popleft())
        return chunk

    def _submit(
        self, pool: "ProcessPoolExecutor", chunk: list[_Item], in_flight: dict
    ) -> bool:
        """Submit one chunk; False when the pool is already broken."""
        from concurrent.futures.process import BrokenProcessPool

        try:
            future = pool.submit(
                _worker_run_chunk, [(item.path, item.source) for item in chunk]
            )
        except BrokenProcessPool:
            return False
        in_flight[future] = (chunk, self._chunk_deadline(len(chunk)))
        return True

    def _recover_broken_pool(
        self,
        pool: "ProcessPoolExecutor",
        crashed: list[_Item],
        in_flight: dict,
        queue: deque,
        isolation: deque,
        results: list,
    ) -> "ProcessPoolExecutor":
        """A worker died: restart the pool (with backoff) and return it.

        Everything still in flight died with the pool.  With exactly one
        file among the dead the crash is unambiguously its strike; with
        several, nobody is charged and all retry one at a time.
        """
        crashed.extend(item for chunk, _ in in_flight.values() for item in chunk)
        in_flight.clear()
        self.pool_restarts += 1
        self._kill_pool(pool)
        delay = DEFAULT_SWEEP_POLICY.backoff_delay(min(self.pool_restarts, 8))
        if delay > 0:
            time.sleep(delay)
        pool = self._new_pool()
        if len(crashed) == 1:
            self._dispatch_failure(
                crashed[0],
                "crash",
                "worker process died while analyzing this file",
                queue,
                isolation,
                results,
            )
        else:
            isolation.extend(crashed)
        return pool

    def _run_parallel(self, items: list[_Item]) -> list[dict]:
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        results: list = [None] * len(items)
        queue: deque[_Item] = deque(items)
        #: Crash suspects run one at a time so the next crash is
        #: unambiguously attributable.
        isolation: deque[_Item] = deque()
        #: future -> (chunk items, watchdog deadline)
        in_flight: dict = {}
        chunk_size = self._pick_chunk_size(len(items))
        poll_seconds = POLL_SECONDS
        pool = self._new_pool()
        try:
            while queue or isolation or in_flight:
                self._check_interrupt()
                # Keep the in-flight window at the worker count so a
                # submitted future is a *running* future and deadlines
                # measure execution, not queueing.
                broken = False
                while queue and len(in_flight) < self.workers:
                    chunk = self._next_chunk(queue, chunk_size)
                    if not self._submit(pool, chunk, in_flight):
                        # A crash from the previous round beat us to the
                        # pool; requeue and fall into crash recovery.
                        queue.extendleft(reversed(chunk))
                        broken = True
                        break
                if not broken and not in_flight and isolation:
                    item = isolation.popleft()
                    if not self._submit(pool, [item], in_flight):
                        isolation.appendleft(item)
                        broken = True
                if broken:
                    pool = self._recover_broken_pool(
                        pool, [], in_flight, queue, isolation, results
                    )
                    continue
                if not in_flight:
                    continue
                done, _ = wait(
                    set(in_flight),
                    timeout=poll_seconds,
                    return_when=FIRST_COMPLETED,
                )
                crashed: list[_Item] = []
                for future in done:
                    # Per reply, not per round: several chunks finishing
                    # in one round must not overshoot the interrupt.
                    self._check_interrupt()
                    chunk, _deadline = in_flight.pop(future)
                    try:
                        payloads = future.result()
                    except BrokenProcessPool:
                        crashed.extend(chunk)
                    except Exception as error:
                        self._chunk_exception(
                            chunk,
                            _poison_reason(error),
                            f"{type(error).__name__}: {error}",
                            queue,
                            isolation,
                            results,
                        )
                    else:
                        self._merge_chunk(
                            chunk, payloads, queue, isolation, results
                        )
                if crashed:
                    pool = self._recover_broken_pool(
                        pool, crashed, in_flight, queue, isolation, results
                    )
                    continue
                # Watchdog: hard-kill workers whose chunk overran its
                # deadline; resubmit innocent in-flight files unharmed.
                now = time.monotonic()
                expired = [
                    (future, chunk)
                    for future, (chunk, deadline) in in_flight.items()
                    if deadline is not None and now > deadline
                ]
                if expired:
                    hung = {future for future, _ in expired}
                    innocents = [
                        item
                        for future, (chunk, _deadline) in in_flight.items()
                        if future not in hung
                        for item in chunk
                    ]
                    in_flight.clear()
                    self.pool_restarts += 1
                    self._kill_pool(pool)
                    pool = self._new_pool()
                    for _future, chunk in expired:
                        if len(chunk) == 1:
                            self._dispatch_failure(
                                chunk[0],
                                "hang",
                                f"no result within "
                                f"{self.options.timeout_seconds:g}s; "
                                "worker killed and recycled",
                                queue,
                                isolation,
                                results,
                            )
                        else:
                            # Any file in the chunk may be the staller:
                            # charge nobody, rerun them one per chunk so
                            # the next overrun names its file.
                            for item in chunk:
                                item.solo = True
                                queue.appendleft(item)
                    for item in innocents:
                        queue.appendleft(item)
            # Trailing check: on a fast corpus the final wait round can
            # drain queue and in-flight together, ending the loop before
            # its top-of-iteration check sees a signal (or the
            # interrupt-after-N fault threshold) raised mid-round.
            self._check_interrupt()
        except SweepInterrupted:
            self._kill_pool(pool)
            pool = None
            raise
        finally:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
        return results
