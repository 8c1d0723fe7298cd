"""Tests for AST instrumentation and entry-point discovery."""

import threading
from pathlib import Path

import pytest

from repro.profiler.probes import ProbeRuntime
from repro.profiler.source_instrumenter import (
    SourceInstrumenter,
    find_main_classes,
)
from repro.rapl.backends import RealClock, SimulatedBackend, VirtualClock
from repro.rapl.domains import Domain


def make_instrumenter():
    return SourceInstrumenter(SimulatedBackend(clock=RealClock()))


class TestFindMainClasses:
    def test_detects_main_guard(self, tmp_path):
        (tmp_path / "app.py").write_text(
            "if __name__ == '__main__':\n    print('hi')\n"
        )
        (tmp_path / "lib.py").write_text("def helper():\n    return 1\n")
        assert find_main_classes(tmp_path) == [tmp_path / "app.py"]

    def test_detects_reversed_guard(self, tmp_path):
        (tmp_path / "app.py").write_text(
            "if '__main__' == __name__:\n    pass\n"
        )
        assert find_main_classes(tmp_path) == [tmp_path / "app.py"]

    def test_detects_top_level_main_function(self, tmp_path):
        (tmp_path / "runner.py").write_text("def main():\n    return 0\n")
        assert find_main_classes(tmp_path) == [tmp_path / "runner.py"]

    def test_multiple_candidates_sorted(self, tmp_path):
        (tmp_path / "b.py").write_text("def main():\n    pass\n")
        (tmp_path / "a.py").write_text("if __name__ == '__main__':\n    pass\n")
        assert find_main_classes(tmp_path) == [tmp_path / "a.py", tmp_path / "b.py"]

    def test_broken_files_skipped(self, tmp_path):
        (tmp_path / "broken.py").write_text("def oops(:\n")
        (tmp_path / "ok.py").write_text("def main():\n    pass\n")
        assert find_main_classes(tmp_path) == [tmp_path / "ok.py"]

    def test_nested_directories_searched(self, tmp_path):
        sub = tmp_path / "pkg"
        sub.mkdir()
        (sub / "deep.py").write_text("def main():\n    pass\n")
        assert find_main_classes(tmp_path) == [sub / "deep.py"]

    @pytest.mark.parametrize("dirname", ["__pycache__", ".venv", ".git"])
    def test_tool_directories_never_entry_points(self, tmp_path, dirname):
        (tmp_path / "app.py").write_text("def main():\n    pass\n")
        hidden = tmp_path / dirname
        hidden.mkdir()
        (hidden / "stale.py").write_text("def main():\n    pass\n")
        assert find_main_classes(tmp_path) == [tmp_path / "app.py"]


class TestInstrumentSource:
    def test_every_function_wrapped(self):
        source = (
            "def a():\n    return 1\n"
            "def b():\n    return 2\n"
            "class C:\n"
            "    def m(self):\n        return 3\n"
        )
        instrumented, count = make_instrumenter().instrument_source(source, "mod")
        assert count == 3
        assert instrumented.count("__pepo_probe__") == 3
        assert "'mod.a'" in instrumented
        assert "'mod.C.m'" in instrumented

    def test_docstring_survives_outside_probe(self):
        source = 'def f():\n    """Doc."""\n    return 1\n'
        instrumented, _ = make_instrumenter().instrument_source(source, "mod")
        namespace = {"__pepo_probe__": _NullProbe()}
        exec(compile(instrumented, "<t>", "exec"), namespace)
        assert namespace["f"].__doc__ == "Doc."
        assert namespace["f"]() == 1

    def test_docstring_only_function_gets_pass(self):
        source = 'def f():\n    """Doc only."""\n'
        instrumented, _ = make_instrumenter().instrument_source(source, "mod")
        namespace = {"__pepo_probe__": _NullProbe()}
        exec(compile(instrumented, "<t>", "exec"), namespace)
        assert namespace["f"]() is None

    def test_nested_functions_get_nested_names(self):
        source = "def outer():\n    def inner():\n        return 1\n    return inner()\n"
        instrumented, count = make_instrumenter().instrument_source(source, "mod")
        assert count == 2
        assert "'mod.outer.inner'" in instrumented


class TestRunSource:
    def test_executes_main_guard_and_records(self):
        source = (
            "def work(n):\n"
            "    return sum(range(n))\n"
            "if __name__ == '__main__':\n"
            "    for _ in range(3):\n"
            "        work(10000)\n"
        )
        result = make_instrumenter().run_source(source, module_name="__main__")
        records = result.executions_of("__main__.work")
        assert len(records) == 3
        assert all(r.package_joules >= 0 for r in records)

    def test_module_name_other_than_main_skips_guard(self):
        source = (
            "def work():\n    return 1\n"
            "if __name__ == '__main__':\n    work()\n"
        )
        result = make_instrumenter().run_source(source, module_name="lib")
        assert len(result) == 0

    def test_exceptions_propagate_with_record(self):
        source = (
            "def fails():\n    raise RuntimeError('boom')\n"
            "fails()\n"
        )
        with pytest.raises(RuntimeError, match="boom"):
            make_instrumenter().run_source(source, module_name="lib")

    def test_nested_call_attribution(self):
        source = (
            "def leaf():\n    return sum(i*i for i in range(100000))\n"
            "def root():\n    return leaf()\n"
            "root()\n"
        )
        result = make_instrumenter().run_source(source, module_name="lib")
        root = result.executions_of("lib.root")[0]
        leaf = result.executions_of("lib.leaf")[0]
        assert root.package_joules >= leaf.package_joules

    def test_run_path(self, tmp_path):
        script = tmp_path / "script.py"
        script.write_text(
            "def main():\n    return sum(range(1000))\n"
            "if __name__ == '__main__':\n    main()\n"
        )
        result = make_instrumenter().run_path(script)
        assert len(result.executions_of("__main__.main")) == 1


PINNED_SOURCE = (
    "def leaf(n):\n"
    "    return n * 2\n"
    "def fails():\n"
    "    raise ValueError('boom')\n"
    "def root():\n"
    "    total = 0\n"
    "    for i in range(3):\n"
    "        total += leaf(i)\n"
    "    try:\n"
    "        fails()\n"
    "    except ValueError:\n"
    "        pass\n"
    "    return total\n"
    "root()\n"
)

#: ``repr`` of every record of two :data:`PINNED_SOURCE` sessions, one a
#: line — the probe path's output, pinned byte for byte.
PINNED_RECORDS = Path(__file__).parents[1] / "fixtures" / "probe_records.txt"


class _SteppingClock:
    """Advances a fixed step on every reading: deterministic time."""

    def __init__(self) -> None:
        self._ticks = 0

    def now(self) -> tuple[float, float]:
        self._ticks += 1
        return self._ticks * 1e-3, self._ticks * 7e-4


class TestPinnedProbeRecords:
    def test_two_sessions_on_one_noisy_backend(self):
        pytest.importorskip("numpy")  # the backend's noise RNG
        backend = SimulatedBackend(
            clock=_SteppingClock(), noise_sigma=0.02, seed=11
        )
        instrumenter = SourceInstrumenter(backend)
        actual = []
        for _ in range(2):
            result = instrumenter.run_source(PINNED_SOURCE, module_name="lib")
            actual.extend(repr(record) for record in result)
        assert actual == PINNED_RECORDS.read_text().splitlines()

    def test_interleaved_coroutines_keep_their_own_intervals(self):
        # Two tasks on one thread close out of LIFO order; each record
        # still spans its own call.
        source = (
            "import asyncio\n"
            "def spend(s):\n"
            "    clock.advance(s)\n"
            "async def work(first, second):\n"
            "    spend(first)\n"
            "    await asyncio.sleep(0)\n"
            "    spend(second)\n"
            "async def main():\n"
            "    await asyncio.gather(work(0.1, 0.2), work(0.4, 0.8))\n"
            "asyncio.run(main())\n"
        )
        clock = VirtualClock()
        result = SourceInstrumenter(SimulatedBackend(clock=clock)).run_source(
            source, module_name="lib", extra_globals={"clock": clock}
        )
        actual = [
            (
                r.method,
                round(r.wall_seconds, 6),
                round(r.package_joules, 6),
                round(r.exclusive_joules[Domain.PACKAGE], 6),
            )
            for r in result
        ]
        assert actual == [
            ("lib.spend", 0.1, 1.5, 1.5),
            ("lib.spend", 0.4, 6.0, 6.0),
            ("lib.spend", 0.2, 3.0, 3.0),
            ("lib.work", 0.7, 10.5, 9.0),
            ("lib.spend", 0.8, 12.0, 12.0),
            ("lib.work", 1.4, 21.0, 12.0),
            ("lib.main", 1.5, 22.5, 1.5),
        ]


class TestProbeThreads:
    def test_interleaved_threads_keep_their_own_call_stacks(self):
        # A opens a; B opens b; A closes a; B opens and closes c inside b.
        clock = VirtualClock()
        probe = ProbeRuntime(SimulatedBackend(clock=clock))
        a_open, b_open, a_closed = (threading.Event() for _ in range(3))

        def thread_a():
            with probe("a"):
                a_open.set()
                b_open.wait(5)
                clock.advance(0.1)
            a_closed.set()

        def thread_b():
            a_open.wait(5)
            with probe("b"):
                b_open.set()
                a_closed.wait(5)
                clock.advance(0.1)
                with probe("c"):
                    clock.advance(0.1)
                clock.advance(0.1)

        workers = [threading.Thread(target=t) for t in (thread_a, thread_b)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(5)
        records = {r.method: r for r in probe.result}
        assert sorted(records) == ["a", "b", "c"]
        for root, methods in (("a", ("a",)), ("b", ("b", "c"))):
            exclusive = sum(
                records[m].exclusive_joules[Domain.PACKAGE] for m in methods
            )
            assert exclusive == pytest.approx(records[root].package_joules)


    def test_generator_finished_on_another_thread_is_recorded(self):
        probe = ProbeRuntime(SimulatedBackend(clock=VirtualClock()))

        def numbers():
            with probe("gen"):
                yield 1
                yield 2

        gen = numbers()
        assert next(gen) == 1  # opens on this thread
        rest = []
        worker = threading.Thread(target=lambda: rest.extend(gen))
        worker.start()
        worker.join(5)
        assert rest == [2]
        assert [r.method for r in probe.result] == ["gen"]


class TestProbeContext:
    def test_raising_call_records_and_reraises(self):
        clock = VirtualClock()
        probe = ProbeRuntime(SimulatedBackend(clock=clock))
        with pytest.raises(KeyError, match="boom"):
            with probe("m.fails", "m.py", 3):
                clock.advance(0.5, 0.25)
                raise KeyError("boom")
        (record,) = probe.result
        assert (record.method, record.filename, record.lineno) == (
            "m.fails", "m.py", 3
        )
        assert not record.suspect
        assert (record.wall_seconds, record.cpu_seconds) == (0.5, 0.25)
        # 3 W static * 0.5 s + 12 W dynamic * 0.25 s
        assert record.package_joules == pytest.approx(4.5, rel=1e-3)
        assert not probe._calls.stack


class _NullProbe:
    """Probe stub recording nothing — for pure-transform tests."""

    def __call__(self, *args):
        import contextlib

        return contextlib.nullcontext()
