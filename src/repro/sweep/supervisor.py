"""Supervised sweep execution: survive hostile files instead of dying.

:class:`SweepSupervisor` runs a sweep's files to completion and treats
each *file* as the unit of failure.  Serial and parallel sweeps share
one per-file executor (:func:`_run_file`, which turns any exception
into an inline failure marker) and one recovery rule, so both
quarantine the same files for the same reasons after the same number
of strikes:

* **a failure that names one file is its strike** — an inline marker
  (``MemoryError``, ``RecursionError``, any analyzer exception), a
  crash or watchdog overrun with only that file in flight, or a
  failed single-file chunk.  A file that fails more than
  ``SweepOptions.max_retries`` times is quarantined: the sweep
  completes, the file degrades per the job's policy (empty findings /
  skipped entry), and the quarantine report records the path, reason,
  and strike count;
* **a failure that names no single file charges nobody** — a pool
  crash with several files in flight, an overrun of a multi-file
  chunk, an exception or malformed reply for a multi-file chunk.
  Every file involved becomes a *suspect*; so does every struck file
  awaiting its retry.  A suspect re-runs alone with nothing else in
  flight, so its next failure names it.

Crash and overrun alike recycle the worker pool through one routine
(SIGKILL, exponential backoff per :data:`DEFAULT_SWEEP_POLICY`, fresh
pool).  Every in-flight chunk carries a wall-clock deadline (the
per-file budget times the chunk length); files in flight beside an
overrun chunk are resubmitted unharmed.  Serial sweeps cannot preempt
an in-process stall, so they detect the overrun after the fact and
discard the late result; they see the
:class:`~repro.resilience.faults.InjectedWorkerCrash` stand-in through
the executor instead of a dead worker.

The supervisor is the one owner of the resume journal
(:class:`SweepJournal`): with ``SweepOptions.resume`` it serves
journaled payloads (rebuilding their quarantine entries) instead of
re-running those files; SIGINT/SIGTERM (or the deterministic
``SweepFaultPlan.interrupt_after_files`` test hook) stops submission,
kills the pool, writes every completed payload to the journal
atomically and raises :class:`SweepInterrupted`; a sweep that completes
deletes the journal.  A resumed sweep's output is byte-identical to an
uninterrupted one.

Parallel sweeps dispatch queued files in **chunks**, sized from the
pending-file and worker counts (``SweepSupervisor._pick_chunk_size``),
to amortize submit/pickle/collect overhead on cold sweeps; serial
sweeps run one file at a time in-process.
"""

from __future__ import annotations

import pickle
import signal
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

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
    splicing incompatible payloads into the merge.  The file is read
    and written only when asked, never on construction.
    """

    def __init__(self, path: str | Path, fingerprint: str) -> None:
        self.path = Path(path)
        self._meta = {"kind": "sweep-journal", "fingerprint": fingerprint}

    def entries(self) -> dict[str, dict]:
        return dict(CheckpointStore(self.path, meta=self._meta).items())

    def write(self, entries: Mapping[str, dict]) -> None:
        CheckpointStore(self.path, meta=self._meta).put_many(dict(entries))

    def clear(self) -> None:
        try:
            self.path.unlink()
        except OSError:
            pass


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


def quarantine_entry(path: str, payload: dict) -> QuarantineEntry:
    """The quarantine entry a journaled quarantine payload came from
    (the inverse of :func:`quarantine_payload`)."""
    return QuarantineEntry(
        path=path,
        reason=str(payload.get("reason", "error")),
        failures=int(payload.get("failures", 0)),
        detail=str(payload.get("detail", "")),
    )


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
    """Run one file through ``job``.

    Any exception — ``MemoryError``, ``RecursionError`` and
    :class:`~repro.resilience.faults.InjectedWorkerCrash` included —
    becomes the file's inline failure marker.  A crash fault in a
    worker (``in_worker=True``) still kills the whole process
    (``os._exit`` cannot be caught); the parent sees
    ``BrokenProcessPool`` instead.
    """
    try:
        if faults is not None:
            apply_worker_fault(faults, path, in_worker=in_worker)
        return job.run(processor, path, source)
    except Exception as error:
        return _failure(
            _poison_reason(error), f"{type(error).__name__}: {error}"
        )


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
    return [
        _run_file(
            _WORKER_JOB,
            _WORKER_PROCESSOR,
            _WORKER_FAULTS,
            path,
            source,
            in_worker=True,
        )
        for path, source in items
    ]


def _is_picklable(job: "SweepJob") -> bool:
    try:
        pickle.dumps(job)
        return True
    except Exception:
        return False


@dataclass
class _Item:
    """One file moving through the supervisor."""

    index: int
    path: str
    source: str
    key: str
    failures: int = 0


class SweepSupervisor:
    """Run sweep items to completion under the fault policy above.

    ``run`` takes ``(path, source, key)`` triples and returns one
    payload per item, in submission order.  Never raises for per-file
    failures — those quarantine — only for interrupts
    (:class:`SweepInterrupted`, after journaling).  ``workers`` is the
    requested worker count: ``run`` never starts more workers than it
    has files to run, and falls back to a serial sweep (saying why in
    :attr:`serial_fallback`) when the job cannot be pickled.  One
    supervisor runs one sweep.
    """

    def __init__(
        self,
        job: "SweepJob",
        workers: int,
        options: SweepOptions | None = None,
        journal: SweepJournal | None = None,
    ) -> None:
        self.job = job
        self.workers = max(1, workers)
        self.options = options or SweepOptions()
        self.journal = journal
        self.quarantine = QuarantineReport()
        self.retries = 0
        self.pool_restarts = 0
        self.timeouts = 0
        self.resumed = 0
        self.serial_fallback: str | None = None
        #: The sweep's self-profile when ``SweepOptions.self_profile``.
        self.profile = None
        # Run state.
        self._results: list = []
        self._queue: deque[_Item] = deque()
        #: Files that must run alone: every file of a failure that named
        #: no single file, and every struck file awaiting its retry.
        self._suspects: deque[_Item] = deque()
        #: future -> (chunk items, watchdog deadline)
        self._in_flight: dict = {}
        self._pool: "ProcessPoolExecutor | None" = None
        self._chunk_size = 1
        self._journaled: dict[str, dict] = {}
        self._completed: dict[str, dict] = {}
        self._total = 0
        self._interrupted = False

    # -- public entry ---------------------------------------------------

    def run(self, items: Iterable[tuple[str, str, str]]) -> list[dict]:
        if self.journal is not None and self.options.resume:
            self._journaled = self.journal.entries()
        items = list(items)
        self._results = [self._journaled.get(key) for _, _, key in items]
        self._queue.extend(
            _Item(index, path, source, key)
            for index, (path, source, key) in enumerate(items)
            if self._results[index] is None
        )
        self.resumed = len(items) - len(self._queue)
        self.quarantine.entries.extend(
            quarantine_entry(path, payload)
            for (path, _, _), payload in zip(items, self._results)
            if payload is not None and payload.get("error") == QUARANTINED
        )
        self._total = len(self._queue)
        self._choose_workers()
        with self._self_profile(), self._signal_handlers():
            if self.workers > 1:
                self._run_parallel()
            elif self._queue:
                self._run_serial()
        if self.journal is not None:
            self.journal.clear()
        return self._results

    def _choose_workers(self) -> None:
        # ``workers`` is taken at face value (no cpu_count clamp): on a
        # 1-core box ``--jobs 2`` must still exercise the pool so
        # parallel behavior is testable everywhere; oversubscription is
        # the caller's call.  Never more workers than files, though.
        self.workers = min(self.workers, max(len(self._queue), 1))
        if self.workers > 1 and not _is_picklable(self.job):
            # Rule classes defined in closures cannot cross the process
            # boundary; degrade to a serial sweep instead of crashing,
            # and say so instead of degrading silently.
            self.workers = 1
            self.serial_fallback = (
                "sweep job is not picklable (rule/transform classes "
                "defined in closures cannot cross the process boundary); "
                "ran serially instead"
            )

    @contextmanager
    def _self_profile(self) -> Iterator[None]:
        """Profile the sweep into :attr:`profile` when asked.

        Parallel sweeps arm the ``PEPO_TRACE`` env hook around the pool
        (the worker initializer calls ``maybe_bootstrap()``, so every
        worker profiles itself and spools records back); serial sweeps
        trace the in-process loop with a thread-following tracer.  The
        profile is kept even when the sweep is interrupted.
        """
        if not self.options.self_profile:
            yield
            return
        import repro

        include = (str(Path(repro.__file__).resolve().parent),)
        if self.workers > 1:
            from repro.profiler.subproc import capture_subprocesses

            recorder = capture_subprocesses(include=include)
        else:
            from repro.profiler.tracer import EnergyTracer

            recorder = EnergyTracer(
                include=include, follow_threads=True, estimate_overhead=False
            )
        try:
            with recorder:
                yield
        finally:
            self.profile = recorder.result

    # -- interrupt plumbing ---------------------------------------------

    @contextmanager
    def _signal_handlers(self) -> Iterator[None]:
        """Turn SIGINT/SIGTERM into the interrupt flag while sweeping."""
        old_handlers: dict[int, object] = {}
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    old_handlers[signum] = signal.signal(
                        signum, self._handle_signal
                    )
                except (ValueError, OSError):  # pragma: no cover - exotic hosts
                    pass
        try:
            yield
        finally:
            for signum, handler in old_handlers.items():
                try:
                    signal.signal(signum, handler)
                except (ValueError, OSError):  # pragma: no cover
                    pass

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
        if self.journal is not None:
            self.journal.write({**self._journaled, **self._completed})
        raise SweepInterrupted(
            f"sweep interrupted after {len(self._completed)} of "
            f"{self._total} pending file(s); completed work journaled",
            journal_path=self.journal.path if self.journal else None,
            completed=len(self._completed),
            total=self._total,
        )

    # -- the recovery rule ----------------------------------------------

    def _record(self, item: _Item, payload: dict) -> None:
        self._results[item.index] = payload
        self._completed[item.key] = payload

    def _fail(self, items: list[_Item], reason: str, detail: str) -> None:
        """Route one failure: a strike when it names one file, else
        every file involved re-runs alone, uncharged."""
        if len(items) == 1:
            self._dispatch_failure(items[0], reason, detail)
        else:
            self._suspects.extend(items)

    def _dispatch_failure(self, item: _Item, reason: str, detail: str) -> None:
        """Charge one attributed failure (a strike).

        A file past ``max_retries`` strikes is quarantined; otherwise it
        backs off and waits among the suspects, so its retry runs alone
        and a repeat failure is attributed to it again.
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
            self._record(item, quarantine_payload(entry))
            return
        self.retries += 1
        time.sleep(DEFAULT_SWEEP_POLICY.backoff_delay(item.failures - 1))
        self._suspects.append(item)

    def _merge(self, chunk: list[_Item], payloads: object) -> None:
        """Fold one chunk reply back into the sweep.

        Per-file failure markers are strikes; finished chunk-mates are
        recorded.  A malformed reply (wrong shape/length) is a failure
        of the whole chunk.
        """
        if not isinstance(payloads, list) or len(payloads) != len(chunk):
            self._fail(chunk, "error", "worker returned a malformed chunk reply")
            return
        for item, payload in zip(chunk, payloads):
            failure = (
                payload.get(_CHUNK_FAILURE_KEY)
                if isinstance(payload, dict)
                else None
            )
            if failure is not None:
                self._dispatch_failure(item, failure[0], failure[1])
            else:
                self._record(item, payload)

    # -- serial path ----------------------------------------------------

    def _run_serial(self) -> None:
        processor = self.job.build()
        while self._queue or self._suspects:
            self._check_interrupt()
            item = (self._queue or self._suspects).popleft()
            self._merge([item], [self._run_in_process(processor, item)])

    def _run_in_process(self, processor: object, item: _Item) -> dict:
        """One file through the shared executor, timed.

        In-process stalls cannot be preempted; an overrun is detected
        post hoc and the late result discarded, so serial and parallel
        sweeps quarantine the same files.
        """
        timeout = self.options.timeout_seconds
        started = time.monotonic()
        payload = _run_file(
            self.job,
            processor,
            self.options.faults,
            item.path,
            item.source,
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
        swallow it, so a recycle is bounded by process teardown, not by
        whatever the hung worker was doing.
        """
        for process in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                process.kill()
            except Exception:  # pragma: no cover - already-dead workers
                pass
        pool.shutdown(wait=True, cancel_futures=True)

    def _crash(self, crashed: list[_Item]) -> None:
        """A worker died: every file still in flight died with the pool,
        so they share the failure with the files seen crashing."""
        self._fail(
            crashed + self._recycle_pool(),
            "crash",
            "worker process died while analyzing this file",
        )

    def _recycle_pool(self) -> list[_Item]:
        """Kill the pool and start a fresh one after a backoff; return
        the files that were in flight, all lost with the old pool."""
        stranded = [item for chunk, _ in self._in_flight.values() for item in chunk]
        self._in_flight.clear()
        self.pool_restarts += 1
        self._kill_pool(self._pool)
        time.sleep(DEFAULT_SWEEP_POLICY.backoff_delay(min(self.pool_restarts, 8)))
        self._pool = self._new_pool()
        return stranded

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
        submit/pickle overhead; the cap bounds how many files one
        failed chunk turns into suspects.
        """
        return max(1, min(8, -(-total // (self.workers * 4))))

    def _fill(self) -> bool:
        """Top the in-flight window up to the worker count; False when
        the pool turned out to be broken.

        Keeping the window at the worker count makes a submitted future
        a *running* future, so deadlines measure execution, not
        queueing.  Queued files go out in chunks; a suspect goes out
        alone, once the queue is empty and nothing else is in flight.
        """
        from concurrent.futures.process import BrokenProcessPool

        run_chunk = _worker_run_chunk
        while len(self._in_flight) < self.workers:
            if self._queue:
                source, size = self._queue, self._chunk_size
            elif self._suspects and not self._in_flight:
                source, size = self._suspects, 1
            else:
                return True
            chunk = [source.popleft() for _ in range(min(size, len(source)))]
            try:
                future = self._pool.submit(
                    run_chunk, [(item.path, item.source) for item in chunk]
                )
            except BrokenProcessPool:
                source.extendleft(reversed(chunk))
                return False
            self._in_flight[future] = (chunk, self._chunk_deadline(len(chunk)))
        return True

    def _run_parallel(self) -> None:
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        self._chunk_size = self._pick_chunk_size(len(self._queue))
        poll_seconds = POLL_SECONDS
        self._pool = self._new_pool()
        try:
            while self._queue or self._suspects or self._in_flight:
                self._check_interrupt()
                if not self._fill():
                    # A crash from the previous round beat the submit to
                    # the pool.
                    self._crash([])
                    continue
                done, _ = wait(
                    set(self._in_flight),
                    timeout=poll_seconds,
                    return_when=FIRST_COMPLETED,
                )
                crashed: list[_Item] = []
                for future in done:
                    # Per reply, not per round: several chunks finishing
                    # in one round must not overshoot the interrupt.
                    self._check_interrupt()
                    chunk, _deadline = self._in_flight.pop(future)
                    try:
                        payloads = future.result()
                    except BrokenProcessPool:
                        crashed.extend(chunk)
                    except Exception as error:
                        self._fail(
                            chunk,
                            _poison_reason(error),
                            f"{type(error).__name__}: {error}",
                        )
                    else:
                        self._merge(chunk, payloads)
                if crashed:
                    self._crash(crashed)
                    continue
                self._watchdog()
            # Trailing check: on a fast corpus the final wait round can
            # drain queue and in-flight together, ending the loop before
            # its top-of-iteration check sees a signal (or the
            # interrupt-after-N fault threshold) raised mid-round.
            self._check_interrupt()
        except BaseException:
            self._kill_pool(self._pool)
            raise
        self._pool.shutdown(wait=True, cancel_futures=True)

    def _watchdog(self) -> None:
        """Recycle the pool when a chunk overran its deadline.

        The overrun chunk fails as a whole; chunks in flight beside it
        are resubmitted unharmed.
        """
        now = time.monotonic()
        expired = [
            future
            for future, (_chunk, deadline) in self._in_flight.items()
            if deadline is not None and now > deadline
        ]
        if not expired:
            return
        overrun = [self._in_flight.pop(future)[0] for future in expired]
        self._queue.extendleft(self._recycle_pool())
        for chunk in overrun:
            self._fail(
                chunk,
                "hang",
                f"no result within {self.options.timeout_seconds:g}s; "
                "worker killed and recycled",
            )
