"""``pepo bench overhead`` — measure the tracer's own per-call cost.

Two micro workloads, chosen to stress the two places a profiling hook
hurts:

* ``bytecode`` — a traced entry function whose loop calls a tiny pure
  Python helper; every helper call/return fires a hook event that the
  tracer must *filter out*.  This is the common case in real profiles:
  the handful of methods you trace sit on top of thousands of calls
  you don't.
* ``c_call`` — a traced entry function whose loop hammers C builtins
  (``len``/``abs``/``min``).  ``sys.setprofile`` fires ``c_call``/
  ``c_return`` for every one of them; ``sys.monitoring`` fires nothing
  (no ``CALL`` events are registered), so the loop runs unobserved.

Each workload is timed untraced (baseline) and under three tracer
configurations — the legacy ``sys.setprofile`` tracer, the new
``settrace`` runtime (memoized filter + deferred materialization) and
the ``sys.monitoring`` runtime (Python ≥ 3.12) — with ``start()`` and
``stop()`` *inside* the timed region, so deferred materialization is
charged for, not hidden.  Per-call overhead is ``(traced − baseline) /
calls``, best-of-repeats.  Results go to ``BENCH_overhead.json`` so
the perf claim is measured, not asserted.

Three more workloads exercise the concurrency-aware follow mode
(``EnergyTracer(follow_threads=True, follow_tasks=True)``), which the
legacy tracer cannot run at all:

* ``bytecode_followed`` — the ``bytecode`` loop, single-threaded, under
  a follow-mode tracer.  This is the reference figure: the price of the
  per-thread buffer machinery with zero actual concurrency.
* ``threaded`` — the same hot loop split across 4 worker threads.
* ``asyncio`` — the hot loop split across gathered coroutines, each
  suspending once so PY_RESUME/PY_YIELD attribution is on the path.

The check (``pepo bench overhead --check``) additionally requires the
``threaded`` per-call overhead to stay within ``CONCURRENT_ALLOWANCE``×
of ``bytecode_followed`` (plus a small noise floor for loaded CI
runners): following threads must not make the hook superlinearly slower
than the same machinery single-threaded.  ``asyncio`` is reported but
not gated — its figure is dominated by event-loop internals the hook
filters, which scale with the task count rather than hook cost.
"""

from __future__ import annotations

import platform
from dataclasses import dataclass
from pathlib import Path

from repro.bench.harness import best_of
from repro.views.tables import render_table

#: Default output path, relative to the working directory.
DEFAULT_OUTPUT = Path("BENCH_overhead.json")

#: Tracer configurations, measurement order.  ``legacy`` is the
#: reference every speedup is computed against.
CONFIGS = ("legacy", "settrace", "monitoring")

#: Concurrent workloads may cost this many times the single-threaded
#: follow-mode figure (``bytecode_followed``) before ``--check`` fails.
CONCURRENT_ALLOWANCE = 2.0

#: Absolute slack (seconds/call) added to the concurrent allowance so a
#: noisy CI runner cannot fail the check on scheduler jitter alone.
CONCURRENT_NOISE_FLOOR_S = 1.0e-6


# -- workloads ---------------------------------------------------------
#
# Module-level so every configuration sees the same code objects (the
# new runtimes memoize per code object).  The entry functions end in
# ``_workload`` and are the only thing the tracers are asked to record.


def _hot(i: int) -> int:
    return (i * i + 3) % 7


def bytecode_workload(n: int) -> int:
    total = 0
    for i in range(n):
        total += _hot(i)
    return total


_DATA = tuple(range(32))


def c_call_workload(n: int) -> int:
    total = 0
    for i in range(n):
        total += len(_DATA) + abs(-i) + min(i, 5)
    return total


WORKLOADS = {
    "bytecode": bytecode_workload,
    "c_call": c_call_workload,
}


# -- concurrent workloads ----------------------------------------------
#
# Each returns the number of traced hot calls actually performed, so
# per-call overhead normalizes correctly when ``n`` is not divisible by
# the thread/task count.  Thread and event-loop plumbing lives in
# helpers that do NOT match the predicate, so only the hot loops are
# recorded — the startup cost appears identically in the baseline and
# traced runs and cancels out.

_THREAD_COUNT = 4
_TASK_COUNT = 64


def thread_body_workload(n: int) -> int:
    total = 0
    for i in range(n):
        total += _hot(i)
    return total


def threaded_workload(n: int) -> int:
    import threading

    per_thread = max(1, n // _THREAD_COUNT)

    def runner() -> None:
        thread_body_workload(per_thread)

    threads = [
        threading.Thread(target=runner) for _ in range(_THREAD_COUNT)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return per_thread * _THREAD_COUNT


async def leaf_task_workload(n: int) -> int:
    import asyncio

    await asyncio.sleep(0)  # suspend once: PY_YIELD/PY_RESUME on the path
    total = 0
    for i in range(n):
        total += _hot(i)
    return total


def asyncio_workload(n: int) -> int:
    import asyncio

    per_task = max(1, n // _TASK_COUNT)

    async def gather_all() -> None:
        await asyncio.gather(
            *(leaf_task_workload(per_task) for _ in range(_TASK_COUNT))
        )

    asyncio.run(gather_all())
    return per_task * _TASK_COUNT


def followed_bytecode_workload(n: int) -> int:
    bytecode_workload(n)
    return n


#: Workloads measured only under follow-mode tracers (no ``legacy``
#: column: the legacy tracer is single-threaded by design).
CONCURRENT_WORKLOADS = {
    "bytecode_followed": followed_bytecode_workload,
    "threaded": threaded_workload,
    "asyncio": asyncio_workload,
}


@dataclass(frozen=True)
class OverheadBenchResult:
    """Per-call overhead (seconds) per workload and configuration."""

    python: str
    calls: int
    repeats: int
    baseline_s: dict[str, float]
    #: workload -> config -> per-call overhead in seconds (>= 0).
    overhead_per_call: dict[str, dict[str, float]]
    #: The runtime ``EnergyTracer(runtime="auto")`` would pick here.
    new_runtime: str

    def speedups(self) -> dict[str, dict[str, float]]:
        """Each configuration's overhead reduction vs. ``legacy``.

        ``inf`` when a configuration's overhead is indistinguishable
        from measurement noise (clamped to zero).  Concurrent workloads
        have no legacy column and are omitted.
        """
        out: dict[str, dict[str, float]] = {}
        for workload, configs in self.overhead_per_call.items():
            legacy = configs.get("legacy")
            if legacy is None:
                continue
            out[workload] = {
                name: (legacy / cost if cost > 0 else float("inf"))
                for name, cost in configs.items()
                if name != "legacy"
            }
        return out

    def concurrent_limit_s(self) -> float:
        """Per-call budget for the ``threaded``/``asyncio`` workloads."""
        reference = self.overhead_per_call.get("bytecode_followed", {}).get(
            self.new_runtime, 0.0
        )
        return CONCURRENT_ALLOWANCE * reference + CONCURRENT_NOISE_FLOOR_S

    def meets_target(self) -> bool:
        """New runtime no slower than legacy everywhere, and ``threaded``
        follow-mode overhead within :meth:`concurrent_limit_s`.

        ``asyncio`` is reported but not gated: its per-hot-call figure
        is dominated by event-loop internals the hook must filter (task
        creation, callbacks, ``sleep`` plumbing), which scale with the
        task count rather than the hook cost under test.
        """
        for workload, configs in self.overhead_per_call.items():
            cost = configs.get(self.new_runtime)
            if cost is None:
                continue
            if "legacy" in configs:
                if cost > configs["legacy"]:
                    return False
            elif workload == "threaded":
                if cost > self.concurrent_limit_s():
                    return False
        return True

    def to_dict(self) -> dict:
        def finite(x: float) -> float | None:
            return round(x, 2) if x != float("inf") else None

        return {
            "bench": "overhead",
            "python": self.python,
            "calls": self.calls,
            "repeats": self.repeats,
            "new_runtime": self.new_runtime,
            "baseline_s": {k: round(v, 6) for k, v in self.baseline_s.items()},
            "overhead_per_call_us": {
                workload: {k: round(v * 1e6, 4) for k, v in configs.items()}
                for workload, configs in self.overhead_per_call.items()
            },
            "speedups_vs_legacy": {
                workload: {k: finite(v) for k, v in sp.items()}
                for workload, sp in self.speedups().items()
            },
            "concurrent_limit_us": round(self.concurrent_limit_s() * 1e6, 4),
            "meets_target": self.meets_target(),
        }


def _predicate(name: str) -> bool:
    return name.endswith("_workload")


def _tracer_factories() -> dict[str, object]:
    """Config name -> zero-arg factory producing a started-able tracer."""
    from repro.profiler.runtime import MonitoringRuntime
    from repro.profiler.tracer import EnergyTracer, LegacyEnergyTracer
    from repro.rapl.backends import SimulatedBackend

    backend = SimulatedBackend()
    factories: dict[str, object] = {
        "legacy": lambda: LegacyEnergyTracer(backend, predicate=_predicate),
        "settrace": lambda: EnergyTracer(
            backend,
            predicate=_predicate,
            runtime="settrace",
            estimate_overhead=False,
        ),
    }
    if MonitoringRuntime.available():
        factories["monitoring"] = lambda: EnergyTracer(
            backend,
            predicate=_predicate,
            runtime="monitoring",
            estimate_overhead=False,
        )
    return factories


def _follow_tracer_factories() -> dict[str, object]:
    """Follow-mode tracers for the concurrent workloads (no legacy)."""
    from repro.profiler.runtime import MonitoringRuntime
    from repro.profiler.tracer import EnergyTracer
    from repro.rapl.backends import SimulatedBackend

    backend = SimulatedBackend()

    def make(runtime: str):
        return lambda: EnergyTracer(
            backend,
            predicate=_predicate,
            runtime=runtime,
            follow_threads=True,
            follow_tasks=True,
            estimate_overhead=False,
        )

    factories: dict[str, object] = {"settrace": make("settrace")}
    if MonitoringRuntime.available():
        factories["monitoring"] = make("monitoring")
    return factories


def run_overhead_bench(
    quick: bool = False, calls: int | None = None, repeats: int | None = None
) -> OverheadBenchResult:
    """Time every workload × configuration; best-of-``repeats``."""
    n = calls if calls is not None else (2_000 if quick else 20_000)
    reps = repeats if repeats is not None else (3 if quick else 5)
    factories = _tracer_factories()

    baseline_s: dict[str, float] = {}
    overhead: dict[str, dict[str, float]] = {}

    def measure(name: str, workload, tracers: dict, hot_calls: int) -> None:
        baseline_s[name], _ = best_of(reps, lambda: workload(n))
        overhead[name] = {}
        for config, make_tracer in tracers.items():

            def traced() -> None:
                tracer = make_tracer()
                tracer.start()
                try:
                    workload(n)
                finally:
                    tracer.stop()

            total, _ = best_of(reps, traced)
            overhead[name][config] = max(
                0.0, (total - baseline_s[name]) / hot_calls
            )

    for name, workload in WORKLOADS.items():
        workload(n)  # warm the code paths once
        measure(name, workload, factories, n)
    follow_factories = _follow_tracer_factories()
    for name, workload in CONCURRENT_WORKLOADS.items():
        # The warm-up run also reports how many hot calls were made.
        measure(name, workload, follow_factories, workload(n))

    return OverheadBenchResult(
        python=platform.python_version(),
        calls=n,
        repeats=reps,
        baseline_s=baseline_s,
        overhead_per_call=overhead,
        new_runtime="monitoring" if "monitoring" in factories else "settrace",
    )


def render_overhead_bench(result: OverheadBenchResult) -> str:
    speedups = result.speedups()
    rows = []
    for workload, configs in result.overhead_per_call.items():
        for config in CONFIGS:
            if config not in configs:
                continue
            if config == "legacy":
                speedup = "1.00x"
            elif workload not in speedups:
                speedup = "—"  # concurrent workload: no legacy column
            elif speedups[workload][config] == float("inf"):
                speedup = "inf"
            else:
                speedup = f"{speedups[workload][config]:.2f}x"
            rows.append(
                (workload, config, f"{configs[config] * 1e6:.3f}", speedup)
            )
    table = render_table(
        ("Workload", "Tracer", "Overhead/call (µs)", "vs legacy"),
        rows,
        title=f"Tracer overhead bench — Python {result.python}, "
        f"{result.calls} calls, best of {result.repeats}",
        right_align=(2, 3),
    )
    verdict = (
        f"new runtime ({result.new_runtime}) within legacy overhead on "
        "every workload; concurrent follow-mode within "
        f"{result.concurrent_limit_s() * 1e6:.3f} µs/call"
        if result.meets_target()
        else f"OVERHEAD REGRESSION: {result.new_runtime} runtime exceeds "
        "the legacy tracer or the concurrent follow-mode budget "
        f"({result.concurrent_limit_s() * 1e6:.3f} µs/call)"
    )
    return f"{table}\n{verdict}"
