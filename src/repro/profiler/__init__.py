"""Method-granularity energy profiling (the JEPO profiler).

The paper injects MSR-read + timestamp code at the start and end of
every method with Javassist, stores one record per execution, and
writes a ``result.txt`` into the project directory.  Python offers three
natural injection points, all implemented here:

* :mod:`repro.profiler.tracer` — interpreter-level instrumentation via
  ``sys.monitoring`` (PEP 669, Python ≥ 3.12) or ``sys.setprofile``;
  profiles *everything* that runs without touching source (closest to
  the "measure the whole project" workflow).  The low-overhead hook
  machinery lives in :mod:`repro.profiler.runtime`.
* :mod:`repro.profiler.injector` — runtime wrapping of selected
  callables/classes/modules with measuring decorators (closest to
  Javassist's per-method bytecode injection).
* :mod:`repro.profiler.source_instrumenter` — AST rewriting of source
  files to insert enter/exit probe calls, the analog of the generated
  ``JEPOInsert.java`` driver.

The last two record through one call recorder
(:class:`repro.profiler.probes.ProbeRuntime`), which closes every call
through the tracer's own record builder.

Concurrent workloads are first-class: ``EnergyTracer(follow_threads=
True, follow_tasks=True, follow_subprocesses=True)`` records per-thread
buffers merged into one timeline, attributes asyncio coroutines to
their owning Task, and collects child-process profiles spooled via the
``PEPO_TRACE`` env hook (:mod:`repro.profiler.subproc`).

Results flow into :mod:`repro.profiler.records` (per-execution
:class:`MethodRecord`, aggregate :class:`ProfileResult`, ``result.txt``
round-trip) and are rendered by :mod:`repro.profiler.report` in the
three-column layout of the paper's Fig. 4.
"""

from repro.profiler.injector import (
    Injector,
    instrument_callable,
    instrument_class,
    instrument_module,
    measured,
)
from repro.profiler.compare import MethodDelta, ProfileComparison
from repro.profiler.probes import ProbeRuntime
from repro.profiler.records import MethodAggregate, MethodRecord, ProfileResult
from repro.profiler.report import ProfilerReport
from repro.profiler.runtime import (
    CodeFilter,
    ConcurrentReplay,
    MonitoringRuntime,
    OverheadEstimate,
    SetprofileRuntime,
    materialize_concurrent,
)
from repro.profiler.session import AmbiguousMainError, ProfilerSession, profile_call
from repro.profiler.source_instrumenter import SourceInstrumenter, find_main_classes
from repro.profiler.subproc import (
    SubprocessCapture,
    capture_subprocesses,
    maybe_bootstrap,
)
from repro.profiler.tracer import EnergyTracer, LegacyEnergyTracer

__all__ = [
    "AmbiguousMainError",
    "CodeFilter",
    "ConcurrentReplay",
    "EnergyTracer",
    "Injector",
    "LegacyEnergyTracer",
    "MonitoringRuntime",
    "OverheadEstimate",
    "SetprofileRuntime",
    "MethodDelta",
    "ProbeRuntime",
    "ProfileComparison",
    "MethodAggregate",
    "MethodRecord",
    "ProfileResult",
    "ProfilerReport",
    "ProfilerSession",
    "SourceInstrumenter",
    "SubprocessCapture",
    "capture_subprocesses",
    "find_main_classes",
    "instrument_callable",
    "materialize_concurrent",
    "maybe_bootstrap",
    "instrument_class",
    "instrument_module",
    "measured",
    "profile_call",
]
