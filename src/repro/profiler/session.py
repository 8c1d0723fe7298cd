"""Profiler session orchestration — the "JEPO profiler" menu button.

Ties the pieces together: choose an entry point, instrument, run,
collect records, write ``result.txt`` into the project directory and
render the profiler view.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from repro.profiler.report import ProfilerReport
from repro.profiler.records import ProfileResult
from repro.profiler.source_instrumenter import SourceInstrumenter, find_main_classes
from repro.profiler.tracer import EnergyTracer
from repro.rapl.backends import RaplBackend, default_backend


class AmbiguousMainError(RuntimeError):
    """More than one entry point found and none selected.

    JEPO "take[s] user input to determine the correct main class";
    non-interactive callers must pass ``main`` explicitly.  The
    candidates are attached for the caller to present.
    """

    def __init__(self, candidates: list[Path]) -> None:
        names = ", ".join(str(c) for c in candidates)
        super().__init__(f"multiple entry points found: {names}")
        self.candidates = candidates


class ProfilerSession:
    """End-to-end profiling of a project directory or a callable.

    Parameters
    ----------
    backend:
        Energy source; defaults to :func:`repro.rapl.default_backend`.
        To survive backend faults, pass a
        :class:`~repro.resilience.resilient.ResilientBackend` (as
        ``PEPO(resilience=...)`` does); a degraded backend marks each
        :class:`ProfileResult` it produces as degraded.
    """

    def __init__(self, backend: RaplBackend | None = None) -> None:
        self.backend = backend or default_backend()

    def _stamp_provenance(self, result: ProfileResult) -> ProfileResult:
        """Propagate the backend's degraded flag onto the result."""
        if getattr(self.backend, "degraded", False):
            result.degraded = True
        return result

    def profile_project(
        self,
        project_dir: str | Path,
        main: str | Path | None = None,
        follow_threads: bool = False,
        follow_tasks: bool = False,
        follow_subprocesses: bool = False,
    ) -> ProfileResult:
        """Instrument and run a project's entry point.

        Mirrors the paper's flow: find main classes; if exactly one,
        run it; if several and ``main`` is not given, raise
        :class:`AmbiguousMainError` so the caller can ask the user.
        ``result.txt`` is written into the project directory.

        With any ``follow_*`` flag the project runs under the
        concurrency-aware :class:`EnergyTracer` (scoped to the project
        directory) instead of the probe instrumenter, so threads,
        asyncio tasks and child processes get per-context attribution.
        """
        project_dir = Path(project_dir)
        if main is None:
            candidates = find_main_classes(project_dir)
            if not candidates:
                raise FileNotFoundError(
                    f"no entry point (main guard or main()) under {project_dir}"
                )
            if len(candidates) > 1:
                raise AmbiguousMainError(candidates)
            main_path = candidates[0]
        else:
            main_path = Path(main)
            if not main_path.is_absolute():
                main_path = project_dir / main_path
        if follow_threads or follow_tasks or follow_subprocesses:
            result = self._run_traced(
                main_path,
                project_dir,
                follow_threads=follow_threads,
                follow_tasks=follow_tasks,
                follow_subprocesses=follow_subprocesses,
            )
        else:
            instrumenter = SourceInstrumenter(self.backend)
            result = self._stamp_provenance(
                instrumenter.run_path(main_path, module_name="__main__")
            )
        result.write_result_txt(project_dir / "result.txt")
        return result

    def _run_traced(
        self,
        main_path: Path,
        project_dir: Path,
        follow_threads: bool,
        follow_tasks: bool,
        follow_subprocesses: bool,
    ) -> ProfileResult:
        """Run the entry point under the concurrency-aware tracer."""
        import runpy

        tracer = EnergyTracer(
            self.backend,
            include=[str(project_dir.resolve())],
            follow_threads=follow_threads,
            follow_tasks=follow_tasks,
            follow_subprocesses=follow_subprocesses,
        )
        with tracer:
            # Resolve so the code objects' co_filename is absolute and
            # matches the (absolute) include prefix above.
            runpy.run_path(str(main_path.resolve()), run_name="__main__")
        return self._stamp_provenance(tracer.result)

    def profile_callable(
        self, fn: Callable[[], object], **follow: bool
    ) -> ProfileResult:
        """Trace one callable with the interpreter-level tracer.

        The tracer picks its hook runtime itself (``sys.monitoring`` on
        Python ≥ 3.12, ``sys.setprofile`` before).  ``follow_threads``/``follow_tasks``/
        ``follow_subprocesses`` pass through to :class:`EnergyTracer`.
        """
        tracer = EnergyTracer(self.backend, **follow)
        with tracer:
            fn()
        return self._stamp_provenance(tracer.result)

    @staticmethod
    def report(result: ProfileResult) -> ProfilerReport:
        return ProfilerReport(result)


def profile_call(
    fn: Callable[[], object], backend: RaplBackend | None = None
) -> ProfileResult:
    """One-shot convenience: profile ``fn()`` and return the records."""
    return ProfilerSession(backend).profile_callable(fn)
