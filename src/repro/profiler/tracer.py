"""Interpreter-level energy tracer.

This is the whole-program injection mode: every Python function call
within the traced scope gets a start reading on entry and an end
reading on exit, exactly the measurement discipline of the paper's
injected Javassist code — without modifying any source.

Two hook implementations sit behind one :class:`EnergyTracer` API (see
:mod:`repro.profiler.runtime`):

* ``sys.monitoring`` (PEP 669, Python ≥ 3.12) — registers only
  function-boundary events and permanently mutes non-traced code
  objects with ``DISABLE``, so untraced code and all C calls cost
  nothing at steady state;
* ``sys.setprofile`` — the portable fallback, with per-code-object
  filter memoization and deferred record materialization so the hook
  does minimal work per event.

Each runtime has one set of event handlers.  They always append
``(op, index, ok, payload, task)`` tuples to the calling thread's
buffer; ``follow_threads`` only decides which threads get one (the
owner alone, or every thread).

``runtime="auto"`` (default) picks the best available one.  At
:meth:`EnergyTracer.stop` the buffers are replayed in one pass by
:func:`~repro.profiler.runtime.materialize_concurrent`, in both modes.
``pepo bench overhead`` measures this tracer against the original
per-event one, which it runs from a pinned commit
(:data:`repro.bench.overhead.REFERENCE_COMMIT`).

Attribution model
-----------------
* *Inclusive* energy of an invocation: everything consumed between its
  entry and exit readings (callees included) — what the paper's
  start/end MSR reads measure.
* *Exclusive* (self) energy: inclusive minus the inclusive energy of
  direct callees, computed via the reconstructed call stack; summing
  exclusive energy over all records never double-counts.

Generators and coroutines surface one record per resume/suspend cycle,
which matches the "one record per execution" storage rule.

Observer effect
---------------
Profiling is not free, and an overhead that differs by code shape can
invert a fast-vs-slow comparison.  The remaining costs, by runtime:

* ``settrace`` — the hook is invoked for every ``call``/``return``
  *and* every ``c_call``/``c_return``; filtering is memoized and
  records are deferred, but C-call-heavy loops still pay one Python
  hook invocation per C call.
* ``monitoring`` — C calls deliver no events at all and non-traced
  code objects are muted after their first event; the remaining cost
  is one backend reading per traced function boundary.

Every profile carries a self-overhead estimate
(:class:`~repro.profiler.runtime.OverheadEstimate`, surfaced in the
Fig. 4 view) so the residual observer effect is reported, not guessed.
For comparisons where even that is too much, the decorator injector
(:mod:`repro.profiler.injector`) pays only at explicitly instrumented
boundaries.
"""

from __future__ import annotations

import threading
import time
import warnings
from pathlib import Path
from typing import Callable, Sequence

from repro.profiler.records import MethodRecord, ProfileResult
from repro.profiler.runtime import (
    CodeFilter,
    OverheadEstimate,
    materialize_concurrent,
    resolve_runtime,
    snapshot_converter,
)
from repro.rapl.backends import RaplBackend, default_backend
from repro.rapl.domains import Domain

_PROFILER_DIR = str(Path(__file__).resolve().parent)

#: Per-process calibration cache: (runtime name, backend type) →
#: (seconds per recorded event, seconds per passed-through event).
#: Calibration costs a few ms; pay it once.
_CALIBRATION_CACHE: dict[tuple[str, type], tuple[float, float]] = {}

#: Calls in the calibration loop (two hook events each).
_CALIBRATION_CALLS = 400


def _calibrate(
    make_tracer: Callable[[Callable[[str], bool] | None], "EnergyTracer"],
) -> tuple[float, float]:
    """Measure the wall cost of one hook event with an empty-hook loop.

    Returns ``(recorded, passthrough)`` seconds per event: the cost of
    an event that takes a backend reading and buffers it, and the cost
    of an event the filter rejects.  Both come from timing a small
    empty-function loop bare vs. under a fresh tracer; runs *after* the
    real session has stopped, so calibration never taxes the measured
    region.
    """

    def calibration_target() -> None:
        pass

    def loop() -> float:
        start = time.perf_counter()
        for _ in range(_CALIBRATION_CALLS):
            calibration_target()
        return time.perf_counter() - start

    loop()  # warm bytecode/allocator caches once
    plain = min(loop() for _ in range(3))

    def cost(predicate: Callable[[str], bool] | None) -> float:
        best = float("inf")
        for _ in range(3):
            tracer = make_tracer(predicate)
            tracer.start()
            elapsed = loop()
            events = tracer._impl.owner_state.events
            tracer.stop()
            if events:
                best = min(best, (elapsed - plain) / events)
        return max(0.0, best if best != float("inf") else 0.0)

    recorded = cost(lambda name: name.endswith("calibration_target"))
    passthrough = cost(lambda name: False)
    return recorded, passthrough


class EnergyTracer:
    """Profile every call in scope, recording energy per execution.

    Parameters
    ----------
    backend:
        Energy source (defaults to :func:`repro.rapl.default_backend`).
        Backends exposing ``snapshot_raw``/``materialize_raw`` get the
        deferred-conversion fast path: the hook records flat tuples of
        raw counter reads and all µJ→J conversion happens at
        :meth:`stop`.
    include:
        Filename prefixes to trace; empty means "trace everything except
        the profiler itself and the interpreter internals".
    exclude:
        Additional filename prefixes to skip.
    predicate:
        Optional final veto: ``predicate(module_dot_qualname) -> bool``.
        Comprehension and generator-expression frames are never recorded
        on their own (see :class:`~repro.profiler.runtime.CodeFilter`);
        their energy lands in the enclosing function's record.
    runtime:
        ``"auto"`` (default) uses ``sys.monitoring`` when the
        interpreter provides it (Python ≥ 3.12) and falls back to
        ``sys.setprofile``; ``"monitoring"`` and ``"settrace"`` force
        one implementation.
    estimate_overhead:
        When True (default), :meth:`stop` attaches an
        :class:`~repro.profiler.runtime.OverheadEstimate` to the result:
        per-event cost from a calibrated empty-workload loop times the
        events this run delivered, converted to joules at the run's
        mean package power.
    follow_threads:
        When True, events from *every* thread are recorded into
        per-thread buffers and merged over the shared energy timeline
        at :meth:`stop` (records carry ``thread_id``/``thread_name``).
        When False (default), only the starting thread is traced and
        cross-thread events are counted as dropped (a warning surfaces
        the loss).  Under the ``settrace`` runtime only threads started
        after :meth:`start` can be followed (``sys.setprofile`` is
        per-thread); ``monitoring`` follows all threads.
    follow_tasks:
        When True, every recorded span is attributed to the asyncio
        Task that was running when it opened (``task_name`` on the
        record).  Task identity is captured at resume, so suspended
        coroutines bill nothing.  Implies ``follow_threads``.
    follow_subprocesses:
        When True, child processes spawned while tracing (and importing
        :mod:`repro`, e.g. multiprocessing workers running
        :func:`repro.profiler.subproc.maybe_bootstrap`) profile
        themselves and ship their records back; :meth:`stop` merges
        them with ``pid`` provenance.

    Use as a context manager::

        tracer = EnergyTracer(backend, include=["/path/to/project"])
        with tracer:
            run_workload()
        result = tracer.result
    """

    def __init__(
        self,
        backend: RaplBackend | None = None,
        include: Sequence[str] = (),
        exclude: Sequence[str] = (),
        predicate: Callable[[str], bool] | None = None,
        runtime: str = "auto",
        estimate_overhead: bool = True,
        follow_threads: bool = False,
        follow_tasks: bool = False,
        follow_subprocesses: bool = False,
    ) -> None:
        self.backend = backend or default_backend()
        self._filter = CodeFilter(
            include=tuple(include),
            exclude=(_PROFILER_DIR, "<frozen", *exclude),
            predicate=predicate,
        )
        self._runtime_classes = resolve_runtime(runtime)
        self._estimate_overhead = estimate_overhead
        self._follow_threads = follow_threads or follow_tasks
        self._follow_subprocesses = follow_subprocesses
        self._include = tuple(include)
        if follow_tasks:
            import asyncio

            self._current_task: Callable[[], object] | None = (
                asyncio.current_task
            )
        else:
            self._current_task = None
        snap_raw = getattr(self.backend, "snapshot_raw", None)
        self._raw_mode = callable(snap_raw)
        self._snap = snap_raw if self._raw_mode else self.backend.snapshot
        self.result = ProfileResult()
        self._counts: dict[str, int] = {}
        self._impl = None
        self._active = False
        self._subproc_capture = None
        # Satellite: start()/stop() from a thread other than the
        # creating one would corrupt the open-call stack — refuse.
        self._created_ident = threading.get_ident()
        #: Name of the hook implementation actually installed
        #: (``"monitoring"`` or ``"settrace"``); None before start().
        self.runtime_used: str | None = None

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        if self._active:
            raise RuntimeError("tracer is already active")
        owner = threading.get_ident()
        if owner != self._created_ident:
            raise RuntimeError(
                f"EnergyTracer.start() called from thread {owner}, but the "
                f"tracer was created in thread {self._created_ident}; "
                "create, start and stop a tracer from the same thread"
            )
        if self._follow_subprocesses:
            from repro.profiler.subproc import SubprocessCapture

            self._subproc_capture = SubprocessCapture(include=self._include)
            self._subproc_capture.activate()
        errors = []
        for runtime_class in self._runtime_classes:
            impl = runtime_class(
                self._filter,
                self._snap,
                owner,
                follow_threads=self._follow_threads,
                current_task=self._current_task,
            )
            try:
                impl.install()
            except RuntimeError as error:
                # e.g. every sys.monitoring tool id is taken; fall
                # through to the next implementation under "auto".
                errors.append(error)
                continue
            self._impl = impl
            break
        else:
            if self._subproc_capture is not None:
                self._subproc_capture.deactivate()
                self._subproc_capture = None
            raise RuntimeError(
                "no profiling runtime could be installed: "
                + "; ".join(str(e) for e in errors)
            )
        self.runtime_used = self._impl.name
        self._active = True

    def stop(self) -> None:
        if not self._active:
            return
        current = threading.get_ident()
        if current != self._created_ident:
            raise RuntimeError(
                f"EnergyTracer.stop() called from thread {current}, but the "
                f"tracer was started in thread {self._created_ident}; "
                "create, start and stop a tracer from the same thread"
            )
        impl = self._impl
        impl.uninstall()
        self._active = False
        # One final reading closes any calls left open (e.g. the
        # function stop() was called from) so their energy is not lost;
        # if it fails, the owner's last good reading stands in.
        try:
            final_payload: object | None = self._snap()
            final_ok = True
        except OSError:
            final_payload = impl.owner_state.last_payload
            final_ok = False
        # Guarded mode registered the owner alone, so both modes replay
        # through the same merge.
        replay = materialize_concurrent(
            impl.thread_states(),
            final_payload,
            final_ok,
            self._filter.metadata,
            snapshot_converter(self.backend, self._raw_mode),
            self._counts,
            impl.task_names,
        )
        records = replay.records
        for dom, value in replay.timeline_joules.items():
            self.result.timeline_joules[dom] = (
                self.result.timeline_joules.get(dom, 0.0) + value
            )
        for dom, value in replay.unattributed_joules.items():
            self.result.unattributed_joules[dom] = (
                self.result.unattributed_joules.get(dom, 0.0) + value
            )
        self.result.extend(records)
        if impl.dropped_events:
            self.result.dropped_events += impl.dropped_events
            self.result.dropped_threads += len(impl.dropped_thread_idents)
            warnings.warn(
                f"{impl.dropped_events} profiling event(s) from "
                f"{len(impl.dropped_thread_idents)} untraced thread(s) "
                "dropped; pass follow_threads=True (pepo profile "
                "--follow-threads) to attribute concurrent energy",
                RuntimeWarning,
                stacklevel=2,
            )
        if self._estimate_overhead:
            self.result.overhead = self._overhead_estimate(
                impl.event_count(), impl.recorded_count(), records
            )
        impl.clear_buffers()
        if self._subproc_capture is not None:
            for pid, child_result in self._subproc_capture.collect():
                self.result.merge(child_result, pid=pid)
            self._subproc_capture = None
        if getattr(self.backend, "degraded", False):
            self.result.degraded = True

    def __enter__(self) -> "EnergyTracer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- self-overhead accounting --------------------------------------

    def _event_costs(self) -> tuple[float, float]:
        """Calibrated (recorded, passthrough) event costs, cached."""
        key = (self.runtime_used or "?", type(self.backend))
        cached = _CALIBRATION_CACHE.get(key)
        if cached is None:
            cached = _calibrate(
                lambda predicate: EnergyTracer(
                    self.backend,
                    predicate=predicate,
                    runtime=self.runtime_used or "auto",
                    estimate_overhead=False,
                )
            )
            _CALIBRATION_CACHE[key] = cached
        return cached

    def _overhead_estimate(
        self, events: int, recorded: int, records: list[MethodRecord]
    ) -> OverheadEstimate:
        """Estimated cost this session's hooks added to the workload.

        ``events × per-event cost`` in wall seconds, converted to joules
        at the run's mean package power (total inclusive package energy
        of top-level records over their wall time).
        """
        recorded_cost, passthrough_cost = self._event_costs()
        seconds = (
            recorded * recorded_cost
            + max(0, events - recorded) * passthrough_cost
        )
        total_wall = 0.0
        total_package = 0.0
        for record in records:
            total_wall += record.wall_seconds
            total_package += record.joules.get(Domain.PACKAGE, 0.0)
        mean_power = total_package / total_wall if total_wall > 0 else 0.0
        return OverheadEstimate(
            runtime=self.runtime_used or "?",
            events=events,
            per_event_seconds=recorded_cost,
            seconds=seconds,
            joules=seconds * mean_power,
        )

