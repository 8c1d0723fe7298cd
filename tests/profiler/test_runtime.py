"""Tests for the low-overhead profiling runtimes.

Covers the two hook implementations behind :class:`EnergyTracer`
(``sys.setprofile`` and ``sys.monitoring``), the per-code-object
filter memo, the deferred-materialization parity guarantees and the
self-overhead estimate.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

from repro.profiler.runtime import (
    CodeFilter,
    MonitoringRuntime,
    OverheadEstimate,
)
from repro.profiler.tracer import EnergyTracer
from repro.rapl.backends import SimulatedBackend, VirtualClock
from repro.rapl.domains import Domain

requires_monitoring = pytest.mark.skipif(
    not MonitoringRuntime.available(),
    reason="sys.monitoring needs Python >= 3.12",
)

_TRACED = ("leaf", "middle", ".gen", "boom", ".top")


def _predicate(name: str) -> bool:
    return any(part in name for part in _TRACED)


def _workload(clock):
    """Deterministic nested/generator/exception workload.

    Every traced function advances the virtual clock by a distinct
    amount, so two runs on fresh backends produce *exactly* the same
    per-record deltas — parity can be asserted with ``==``, not
    ``approx``.
    """

    def leaf(i):
        clock.advance(0.001)
        return i * 2

    def middle(i):
        clock.advance(0.0005)
        return leaf(i) + leaf(i + 1)

    def gen(n):
        for i in range(n):
            clock.advance(0.0002)
            yield i

    def boom():
        clock.advance(0.0003)
        raise ValueError("expected")

    def unmatched_helper():
        clock.advance(0.0001)
        return 0

    def top():
        total = unmatched_helper()
        for i in range(2):
            total += middle(i)
        total += sum(gen(3))
        try:
            boom()
        except ValueError:
            pass
        return total

    return top


def _run(runtime: str) -> list:
    backend = SimulatedBackend(clock=VirtualClock())
    top = _workload(backend.clock)
    tracer = EnergyTracer(
        backend,
        predicate=_predicate,
        runtime=runtime,
        estimate_overhead=False,
    )
    with tracer:
        top()
    return list(tracer.result)


#: ``repr`` of every guarded ``settrace`` record of :func:`_workload`,
#: one a line, with ``filename`` cut to its base name and ``lineno``
#: counted from ``_workload``'s ``def`` line so the pin survives moves.
#: Captured where each record's (method, call_index, wall_seconds,
#: joules) was checked equal to the original per-event tracer's.
PINNED_RECORDS = Path(__file__).parents[1] / "fixtures" / "tracer_records.txt"


class TestBackendParity:
    """Satellite: both runtimes must produce interchangeable profiles."""

    def test_settrace_matches_pinned_records(self):
        first_line = _workload.__code__.co_firstlineno
        actual = [
            repr(
                dataclasses.replace(
                    r,
                    filename=Path(r.filename).name,
                    lineno=r.lineno - first_line,
                )
            )
            for r in _run("settrace")
        ]
        assert actual == PINNED_RECORDS.read_text().splitlines()

    @requires_monitoring
    def test_monitoring_matches_settrace_exactly(self):
        monitoring = _run("monitoring")
        settrace = _run("settrace")
        # Full record equality: names, call counts, completion order,
        # wall/cpu time and every energy domain, to the last bit.
        assert monitoring == settrace
        assert len(monitoring) > 0

    def test_workload_covers_generators_and_unwinds(self):
        records = _run("settrace")
        names = [r.method for r in records]
        assert sum(".gen" in n for n in names) >= 3  # one per resume
        assert any("boom" in n for n in names)  # closed by unwind
        assert not any("unmatched_helper" in n for n in names)


class TestPriorProfileHook:
    """Satellite: stop() must restore, not clobber, a prior hook."""

    def test_prior_hook_saved_and_restored(self):
        def sentinel(frame, event, arg):
            pass

        backend = SimulatedBackend(clock=VirtualClock())
        tracer = EnergyTracer(
            backend,
            predicate=_predicate,
            runtime="settrace",
            estimate_overhead=False,
        )
        sys.setprofile(sentinel)
        try:
            with tracer:
                _workload(backend.clock)()
            assert sys.getprofile() is sentinel
        finally:
            sys.setprofile(None)
        assert len(tracer.result) > 0

    @requires_monitoring
    def test_monitoring_leaves_setprofile_hook_alone(self):
        def sentinel(frame, event, arg):
            pass

        backend = SimulatedBackend(clock=VirtualClock())
        tracer = EnergyTracer(
            backend,
            predicate=_predicate,
            runtime="monitoring",
            estimate_overhead=False,
        )
        sys.setprofile(sentinel)
        try:
            with tracer:
                _workload(backend.clock)()
            assert sys.getprofile() is sentinel
        finally:
            sys.setprofile(None)
        assert len(tracer.result) > 0


class TestCodeFilter:
    def test_classify_memoizes_per_code_object(self):
        calls = []

        def spy(name):
            calls.append(name)
            return True

        code_filter = CodeFilter(predicate=spy)

        def fn():
            return 1

        index = code_filter.classify(fn.__code__, fn.__globals__)
        assert index >= 0
        assert code_filter.memo[id(fn.__code__)] == index
        assert code_filter.metadata[index][0].endswith("fn")
        # The hot path consults the memo; a second classify is the
        # only way to re-run the predicate.
        assert len(calls) == 1

    def test_rejected_code_memoized_as_minus_one(self):
        code_filter = CodeFilter(predicate=lambda name: False)

        def fn():
            return 1

        assert code_filter.classify(fn.__code__, fn.__globals__) == -1
        assert code_filter.memo[id(fn.__code__)] == -1

    def test_comprehensions_always_rejected(self):
        genexpr = next(
            c
            for c in (lambda: sum(i for i in range(3))).__code__.co_consts
            if hasattr(c, "co_name") and c.co_name == "<genexpr>"
        )
        # Even a predicate that accepts everything cannot admit it.
        code_filter = CodeFilter(predicate=lambda name: True)
        assert code_filter.classify(genexpr, {}) == -1

    def test_classified_code_objects_are_pinned(self):
        code_filter = CodeFilter()
        code = compile("pass", "<pinned-test>", "exec")
        code_id = id(code)
        code_filter.classify(code, {})
        del code
        # The strong reference keeps the id valid for the memo's life.
        assert any(id(c) == code_id for c in code_filter._pinned)


class TestRuntimeSelection:
    def test_unknown_runtime_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            EnergyTracer(
                SimulatedBackend(clock=VirtualClock()), runtime="bogus"
            )

    def test_auto_picks_an_available_runtime(self):
        backend = SimulatedBackend(clock=VirtualClock())
        tracer = EnergyTracer(
            backend, predicate=_predicate, estimate_overhead=False
        )
        with tracer:
            pass
        expected = (
            "monitoring" if MonitoringRuntime.available() else "settrace"
        )
        assert tracer.runtime_used == expected

    @pytest.mark.skipif(
        MonitoringRuntime.available(), reason="monitoring exists on >= 3.12"
    )
    def test_monitoring_unavailable_raises(self):
        with pytest.raises(RuntimeError):
            EnergyTracer(
                SimulatedBackend(clock=VirtualClock()), runtime="monitoring"
            )


class TestOverheadEstimate:
    def test_estimate_attached_by_default(self):
        backend = SimulatedBackend(clock=VirtualClock())
        tracer = EnergyTracer(backend, predicate=_predicate)
        with tracer:
            _workload(backend.clock)()
        estimate = tracer.result.overhead
        assert isinstance(estimate, OverheadEstimate)
        assert estimate.runtime == tracer.runtime_used
        assert estimate.events > 0
        assert estimate.seconds >= 0.0
        assert estimate.joules >= 0.0

    def test_estimate_suppressed_when_disabled(self):
        backend = SimulatedBackend(clock=VirtualClock())
        tracer = EnergyTracer(
            backend, predicate=_predicate, estimate_overhead=False
        )
        with tracer:
            _workload(backend.clock)()
        assert tracer.result.overhead is None

    def test_estimate_surfaces_in_report(self):
        from repro.profiler.report import ProfilerReport

        backend = SimulatedBackend(clock=VirtualClock())
        tracer = EnergyTracer(backend, predicate=_predicate)
        with tracer:
            _workload(backend.clock)()
        rendered = ProfilerReport(tracer.result).render()
        assert "overhead" in rendered


class TestDeferredMaterialization:
    def test_hooks_buffer_flat_tuples_until_stop(self):
        backend = SimulatedBackend(clock=VirtualClock())
        tracer = EnergyTracer(
            backend,
            predicate=_predicate,
            runtime="settrace",
            estimate_overhead=False,
        )
        top = _workload(backend.clock)
        tracer.start()
        top()
        # Mid-run: events recorded, but no MethodRecord exists yet.
        assert len(tracer._impl.owner_state.buffer) > 0
        assert len(tracer.result) == 0
        tracer.stop()
        assert len(tracer._impl.owner_state.buffer) == 0
        assert len(tracer.result) > 0

    def test_exclusive_energy_survives_deferral(self):
        backend = SimulatedBackend(clock=VirtualClock())
        tracer = EnergyTracer(
            backend,
            predicate=_predicate,
            runtime="settrace",
            estimate_overhead=False,
        )
        with tracer:
            _workload(backend.clock)()
        result = tracer.result
        for middle_rec in result:
            if "middle" not in middle_rec.method:
                continue
            assert middle_rec.exclusive_joules[Domain.PACKAGE] < (
                middle_rec.joules[Domain.PACKAGE]
            )
