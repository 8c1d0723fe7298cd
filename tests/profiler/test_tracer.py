"""Tests for the sys.setprofile energy tracer."""

import pytest

from repro.profiler.tracer import EnergyTracer
from repro.rapl.backends import RealClock, SimulatedBackend
from repro.rapl.domains import Domain


def make_backend():
    return SimulatedBackend(clock=RealClock())


def module_predicate(name: str) -> bool:
    return name.startswith(("tests.", "__main__"))


class TestTracing:
    def test_records_every_execution(self):
        tracer = EnergyTracer(make_backend(), predicate=lambda n: "traced_fn" in n)

        def traced_fn(n):
            return sum(range(n))

        with tracer:
            for _ in range(3):
                traced_fn(1000)
        records = tracer.result.executions_of(f"{__name__}.{traced_fn.__qualname__}")
        assert len(records) == 3
        assert [r.call_index for r in records] == [0, 1, 2]

    def test_inclusive_energy_covers_children(self):
        tracer = EnergyTracer(
            make_backend(), predicate=lambda n: "child" in n or "parent" in n
        )

        def child():
            return sum(i * i for i in range(100_000))

        def parent():
            return child() + child()

        with tracer:
            parent()
        result = tracer.result
        parent_rec = result.executions_of(f"{__name__}.{parent.__qualname__}")[0]
        child_total = sum(
            r.package_joules
            for r in result.executions_of(f"{__name__}.{child.__qualname__}")
        )
        assert parent_rec.package_joules >= child_total

    def test_exclusive_energy_subtracts_children(self):
        tracer = EnergyTracer(
            make_backend(), predicate=lambda n: "leaf" in n or "caller" in n
        )

        def leaf():
            return sum(i * i for i in range(200_000))

        def caller():
            return leaf()

        with tracer:
            caller()
        result = tracer.result
        caller_rec = result.executions_of(f"{__name__}.{caller.__qualname__}")[0]
        leaf_rec = result.executions_of(f"{__name__}.{leaf.__qualname__}")[0]
        expected = caller_rec.package_joules - leaf_rec.package_joules
        assert caller_rec.exclusive_joules[Domain.PACKAGE] == pytest.approx(
            expected, abs=1e-9
        )
        # The leaf dominates: caller self-energy is a small fraction.
        assert caller_rec.exclusive_joules[Domain.PACKAGE] < leaf_rec.package_joules

    def test_exception_propagates_and_is_still_recorded(self):
        tracer = EnergyTracer(make_backend(), predicate=lambda n: "boom" in n)

        def boom():
            raise ValueError("expected")

        with pytest.raises(ValueError, match="expected"):
            with tracer:
                boom()
        assert len(tracer.result.executions_of(f"{__name__}.{boom.__qualname__}")) == 1

    def test_comprehension_frames_skipped_by_default(self):
        tracer = EnergyTracer(make_backend(), predicate=lambda n: "hostfn" in n or "genexpr" in n)

        def hostfn():
            return sum(i for i in range(1000))

        with tracer:
            hostfn()
        names = tracer.result.methods()
        assert not any("<genexpr>" in n for n in names)
        assert any("hostfn" in n for n in names)

    def test_include_prefix_filters_by_filename(self, tmp_path):
        # A function compiled from an external "file" is excluded when
        # include points elsewhere.
        src = "def external():\n    return 1\n"
        namespace = {}
        exec(compile(src, str(tmp_path / "ext.py"), "exec"), namespace)
        tracer = EnergyTracer(make_backend(), include=["/nonexistent-prefix"])
        with tracer:
            namespace["external"]()
        assert len(tracer.result) == 0

    def test_double_start_rejected(self):
        tracer = EnergyTracer(make_backend(), predicate=lambda n: False)
        tracer.start()
        try:
            with pytest.raises(RuntimeError):
                tracer.start()
        finally:
            tracer.stop()

    def test_stop_closes_open_calls(self):
        """A call that never returns (tracer stopped inside) still records."""
        backend = make_backend()
        tracer = EnergyTracer(backend, predicate=lambda n: "long_running" in n)

        def long_running():
            tracer.stop()
            return 42

        tracer.start()
        assert long_running() == 42
        assert len(tracer.result.executions_of(
            f"{__name__}.{long_running.__qualname__}"
        )) == 1

    def test_profiler_machinery_not_self_recorded(self):
        tracer = EnergyTracer(make_backend())
        with tracer:
            pass
        assert not any("repro.profiler" in m for m in tracer.result.methods())

    def test_recursive_function_records_each_level(self):
        tracer = EnergyTracer(make_backend(), predicate=lambda n: "fact" in n)

        def fact(n):
            return 1 if n <= 1 else n * fact(n - 1)

        with tracer:
            fact(5)
        records = tracer.result.executions_of(f"{__name__}.{fact.__qualname__}")
        assert len(records) == 5
        # Outermost invocation completes last → highest call_index.
        assert records[-1].call_index == 4
