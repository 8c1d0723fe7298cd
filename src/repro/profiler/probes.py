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
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator

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

    @contextlib.contextmanager
    def __call__(
        self, method: str, filename: str = "", lineno: int = 0
    ) -> Iterator[None]:
        entry = self.open(method, filename, lineno)
        try:
            yield
        finally:
            self.close(entry)
