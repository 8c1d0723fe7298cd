"""The call recorder behind AST probes and injected wrappers.

The AST instrumenter (:mod:`repro.profiler.source_instrumenter`) wraps
every function body in ``with __pepo_probe__("<name>"):``, and the
decorator injector (:mod:`repro.profiler.injector`) wraps callables in
a function that brackets the call.  Both bind the same recorder, a
:class:`ProbeRuntime`: :meth:`~ProbeRuntime.open` reads the backend on
entry and pushes the call onto the calling thread's open-call stack,
:meth:`~ProbeRuntime.close` reads it again on exit and closes the call
through the tracer's :class:`~repro.profiler.runtime._RecordBuilder` —
so call numbering, exclusive-energy attribution and suspect flags are
the tracer's own.  Records are built eagerly: ``result`` is complete
after every call.

Each probed call pays two backend readings, and whatever else runs
between them lands inside the measured interval.  The ``with`` block is
therefore a plain :class:`_Probe` object (``__slots__``, an
``__enter__`` that calls ``open`` and an ``__exit__`` that calls
``close``) rather than a generator-based context manager, and the
simulated backend's ``snapshot()`` is one pass over its five counters
(see :mod:`repro.rapl.backends`).
"""

from __future__ import annotations

import threading

from repro.profiler.records import ProfileResult
from repro.profiler.runtime import _ZERO_SNAPSHOT, _RecordBuilder
from repro.rapl.backends import RaplBackend, default_backend


class _CallStacks(threading.local):
    """Each thread's open-call stack of ``_RecordBuilder`` entries."""

    def __init__(self) -> None:
        self.stack: list[list] = []


class ProbeRuntime:
    """Callable context-manager factory injected as ``__pepo_probe__``.

    Probes run *inside* user code, so a failed backend read never
    raises through the measured call: the last good reading (zero
    before any) stands in and the record is marked suspect.  Each
    thread keeps its own open-call stack; records carry no thread
    provenance.
    """

    def __init__(self, backend: RaplBackend | None = None) -> None:
        self.backend = backend or default_backend()
        self.result = ProfileResult()
        #: Interned ``(method, filename, lineno)`` call sites.
        self._metadata: list[tuple[str, str, int]] = []
        self._sites: dict[tuple[str, str, int], int] = {}
        self._builder = _RecordBuilder(self._metadata, {})
        self._last = _ZERO_SNAPSHOT
        self._calls = _CallStacks()

    def open(self, method: str, filename: str = "", lineno: int = 0) -> list:
        """Enter a call: read the backend and push the call's entry."""
        site = (method, filename, lineno)
        index = self._sites.get(site)
        if index is None:
            index = self._sites[site] = len(self._metadata)
            self._metadata.append(site)
        try:
            start = self._last = self.backend.snapshot()
            ok = True
        except OSError:
            start, ok = self._last, False
        entry = [index, start, ok, {}, -1]
        self._calls.stack.append(entry)
        return entry

    def close(self, entry: list) -> None:
        """Leave the innermost open call and record ``entry``'s call.

        The two are the same call unless generators or coroutines
        interleave on one thread; the record then still spans
        ``entry``'s own interval.
        """
        stack = self._calls.stack
        if stack:
            stack.pop()
        try:
            end = self._last = self.backend.snapshot()
            ok = True
        except OSError:
            end, ok = self._last, False
        delta = end.delta(entry[1])
        builder = self._builder
        builder.close(entry, delta, dict(delta.joules), delta.cpu_seconds, ok, stack)
        self.result.add(builder.records.pop())
        if getattr(self.backend, "degraded", False):
            self.result.degraded = True

    def __call__(
        self, method: str, filename: str = "", lineno: int = 0
    ) -> _Probe:
        return _Probe(self, method, filename, lineno)


class _Probe:
    """One probed call's ``with`` block: :meth:`ProbeRuntime.open` on
    entry, :meth:`ProbeRuntime.close` on exit.  An exception raised in
    the block closes the call and then propagates."""

    __slots__ = ("_runtime", "_method", "_filename", "_lineno", "_entry")

    def __init__(
        self, runtime: ProbeRuntime, method: str, filename: str, lineno: int
    ) -> None:
        self._runtime = runtime
        self._method = method
        self._filename = filename
        self._lineno = lineno

    def __enter__(self) -> None:
        self._entry = self._runtime.open(
            self._method, self._filename, self._lineno
        )

    def __exit__(self, exc_type, exc, traceback) -> None:
        self._runtime.close(self._entry)
