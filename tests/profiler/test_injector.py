"""Tests for runtime instrumentation (the Javassist analog)."""

import sys
import types

import pytest

from repro.profiler.injector import (
    Injector,
    instrument_callable,
    instrument_class,
    instrument_module,
    measured,
)
from repro.rapl.backends import RealClock, SimulatedBackend, VirtualClock
from repro.rapl.domains import Domain


def make_injector():
    return Injector(SimulatedBackend(clock=RealClock()))


class TestInstrumentCallable:
    def test_wrapping_preserves_behaviour_and_metadata(self):
        injector = make_injector()

        def add(a, b):
            """Adds."""
            return a + b

        wrapped = instrument_callable(add, injector)
        assert wrapped(2, 3) == 5
        assert wrapped.__name__ == "add"
        assert wrapped.__doc__ == "Adds."

    def test_each_call_recorded_separately(self):
        injector = make_injector()
        wrapped = instrument_callable(lambda: sum(range(1000)), injector, name="m.f")
        wrapped()
        wrapped()
        records = injector.result.executions_of("m.f")
        assert [r.call_index for r in records] == [0, 1]

    def test_exception_still_recorded(self):
        injector = make_injector()

        def fails():
            raise KeyError("x")

        wrapped = instrument_callable(fails, injector, name="m.fails")
        with pytest.raises(KeyError):
            wrapped()
        assert len(injector.result.executions_of("m.fails")) == 1

    def test_idempotent(self):
        injector = make_injector()

        def f():
            return 1

        once = instrument_callable(f, injector)
        twice = instrument_callable(once, injector)
        assert twice is once
        twice()
        assert len(injector.result) == 1

    def test_decorator_form(self):
        injector = make_injector()

        @measured(injector, name="m.g")
        def g(x):
            return x * 2

        assert g(4) == 8
        assert len(injector.result.executions_of("m.g")) == 1

    def test_nested_wrappers_attribute_exclusive_energy(self):
        # Exclusive energy partitions the root's inclusive energy: a
        # callee's energy is billed to the callee, not again to its caller.
        clock = VirtualClock()
        injector = Injector(SimulatedBackend(clock=clock))

        @measured(injector, name="m.leaf")
        def leaf():
            clock.advance(0.1)

        @measured(injector, name="m.mid")
        def mid():
            clock.advance(0.1)
            leaf()

        @measured(injector, name="m.root")
        def root():
            mid()
            leaf()
            clock.advance(0.1)

        root()
        inclusive = injector.result.executions_of("m.root")[0].package_joules
        exclusive = sum(
            r.exclusive_joules[Domain.PACKAGE] for r in injector.result
        )
        assert inclusive > 0
        assert exclusive == pytest.approx(inclusive)

    def test_failed_reads_degrade_the_record_not_the_call(self):
        pytest.importorskip("numpy")  # the fault plan's RNG
        from repro.resilience.faults import FaultInjectingBackend, FaultPlan

        backend = FaultInjectingBackend(
            SimulatedBackend(clock=VirtualClock()), FaultPlan(read_error_rate=1.0)
        )
        injector = Injector(backend)
        wrapped = instrument_callable(lambda: 42, injector, name="m.f")
        assert wrapped() == 42
        (record,) = injector.result.executions_of("m.f")
        assert record.suspect

    def test_energy_recorded_positive_for_real_work(self):
        injector = make_injector()
        wrapped = instrument_callable(
            lambda: sum(i * i for i in range(300_000)), injector, name="m.work"
        )
        wrapped()
        record = injector.result.executions_of("m.work")[0]
        assert record.package_joules > 0
        assert record.cpu_seconds > 0


class TestInstrumentClass:
    def test_methods_instrumented(self):
        injector = make_injector()

        class Greeter:
            def __init__(self, name):
                self.name = name

            def greet(self):
                return f"hi {self.name}"

            @staticmethod
            def helper():
                return "static"

        instrument_class(Greeter, injector)
        g = Greeter("x")
        assert g.greet() == "hi x"
        assert Greeter.helper() == "static"
        methods = injector.result.methods()
        assert any(m.endswith("Greeter.__init__") for m in methods)
        assert any(m.endswith("Greeter.greet") for m in methods)
        # staticmethod descriptors are left alone
        assert not any("helper" in m for m in methods)

    def test_dunders_other_than_init_call_untouched(self):
        injector = make_injector()

        class Box:
            def __init__(self):
                self.items = []

            def __len__(self):
                return len(self.items)

        instrument_class(Box, injector)
        assert len(Box()) == 0
        assert not any("__len__" in m for m in injector.result.methods())


class TestInstrumentModule:
    def _make_module(self):
        module = types.ModuleType("fake_project_mod")
        source = (
            "def free_fn():\n"
            "    return 7\n"
            "class Thing:\n"
            "    def run(self):\n"
            "        return free_fn()\n"
            "    def __len__(self):\n"
            "        return 0\n"
        )
        exec(compile(source, "fake_project_mod.py", "exec"), module.__dict__)
        module.free_fn.__module__ = module.__name__
        module.Thing.__module__ = module.__name__
        module.Thing.run.__module__ = module.__name__
        return module

    def test_counts_and_records(self):
        injector = make_injector()
        module = self._make_module()
        count = instrument_module(module, injector)
        assert count == 2  # free_fn + Thing.run
        module.Thing().run()
        methods = injector.result.methods()
        assert any("Thing.run" in m for m in methods)

    def test_imported_names_not_instrumented(self):
        injector = make_injector()
        module = types.ModuleType("importer_mod")
        module.sys_path = sys.path  # imported object, not defined here
        module.len_alias = len
        assert instrument_module(module, injector) == 0

    def test_instrumenting_twice_adds_nothing(self):
        injector = make_injector()
        module = self._make_module()
        first = instrument_module(module, injector)
        second = instrument_module(module, injector)
        assert first == 2
        assert second == 0
