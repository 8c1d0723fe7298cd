"""Tests for concurrency-aware profiling.

Covers the follow-mode tentpole end to end on both hook runtimes:
per-thread buffers with thread provenance, asyncio task attribution
(task identity at resume, suspended coroutines bill nothing), drop
accounting when following is off, the wrong-thread lifecycle guard,
PY_YIELD/PY_RESUME pairing edge cases (nested generators, throw(),
cancelled tasks), bit-exact single-threaded parity, subprocess capture
via the ``PEPO_TRACE`` env hook, and the conservation invariant
(Σ exclusive + unattributed == timeline, per domain).
"""

import asyncio
import concurrent.futures
import multiprocessing
import os
import signal
import threading
import time
import warnings

import pytest

from repro.profiler.records import MethodRecord, ProfileResult
from repro.profiler.runtime import MonitoringRuntime
from repro.profiler.subproc import SubprocessCapture, maybe_bootstrap
from repro.profiler.tracer import EnergyTracer
from repro.rapl.backends import SimulatedBackend, VirtualClock
from repro.rapl.domains import Domain

requires_monitoring = pytest.mark.skipif(
    not MonitoringRuntime.available(),
    reason="sys.monitoring needs Python >= 3.12",
)

RUNTIMES = [
    "settrace",
    pytest.param("monitoring", marks=requires_monitoring),
]

_TRACED = ("_traced", ".gen_", "leaf", "spin")


def _predicate(name: str) -> bool:
    return any(part in name for part in _TRACED)


def _tracer(runtime: str, backend, **follow) -> EnergyTracer:
    return EnergyTracer(
        backend,
        predicate=_predicate,
        runtime=runtime,
        estimate_overhead=False,
        **follow,
    )


def _virtual_backend() -> SimulatedBackend:
    return SimulatedBackend(clock=VirtualClock())


# -- thread following ---------------------------------------------------


@pytest.mark.parametrize("runtime", RUNTIMES)
class TestThreadFollowing:
    def test_worker_threads_get_provenance(self, runtime):
        backend = _virtual_backend()
        clock = backend.clock

        def body_traced(dt):
            clock.advance(dt)

        tracer = _tracer(runtime, backend, follow_threads=True)
        with tracer:
            body_traced(0.001)  # owner-thread record
            # Threads run one at a time so the virtual clock stays
            # deterministic; concurrency of the buffers, not of the
            # workload, is under test here.
            for name, dt in (("alpha", 0.002), ("beta", 0.003)):
                thread = threading.Thread(
                    target=body_traced, args=(dt,), name=name
                )
                thread.start()
                thread.join()

        records = list(tracer.result)
        assert tracer.result.dropped_events == 0
        owner = [r for r in records if r.thread_id == 0]
        foreign = [r for r in records if r.thread_id != 0]
        assert len(owner) == 1
        assert {r.thread_name for r in foreign} == {"alpha", "beta"}
        assert all(r.thread_id != 0 for r in foreign)
        # Each context label is distinct and the owner stays "main".
        assert owner[0].context_label == "main"
        assert len({r.context_label for r in foreign}) == 2

    def test_energy_attributed_to_the_thread_that_spent_it(self, runtime):
        backend = _virtual_backend()
        clock = backend.clock

        def body_traced(dt):
            clock.advance(dt)

        tracer = _tracer(runtime, backend, follow_threads=True)
        with tracer:
            thread = threading.Thread(
                target=body_traced, args=(0.004,), name="worker"
            )
            thread.start()
            thread.join()
        (record,) = [r for r in tracer.result if r.thread_id != 0]
        assert record.wall_seconds == pytest.approx(0.004)
        assert record.package_joules > 0.0

    def test_distinct_threads_surviving_ident_reuse(self, runtime):
        # OS thread idents are recycled; sequential same-target threads
        # must still land in distinct per-thread states (distinct
        # names), not be conflated into one.
        backend = _virtual_backend()
        clock = backend.clock

        def body_traced():
            clock.advance(0.001)

        tracer = _tracer(runtime, backend, follow_threads=True)
        with tracer:
            for i in range(4):
                thread = threading.Thread(target=body_traced, name=f"w{i}")
                thread.start()
                thread.join()
        names = {r.thread_name for r in tracer.result if r.thread_id != 0}
        assert names == {"w0", "w1", "w2", "w3"}


# -- drop accounting (satellite 1) ---------------------------------------


@pytest.mark.parametrize("runtime", RUNTIMES)
class TestDropAccounting:
    def test_unfollowed_thread_events_counted_and_warned(self, runtime):
        backend = _virtual_backend()
        clock = backend.clock

        def body_traced():
            clock.advance(0.001)

        tracer = _tracer(runtime, backend, follow_threads=False)
        tracer.start()
        thread = threading.Thread(target=body_traced)
        thread.start()
        thread.join()
        with pytest.warns(RuntimeWarning, match="follow_threads=True"):
            tracer.stop()
        assert tracer.result.dropped_events > 0
        assert tracer.result.dropped_threads >= 1
        # Nothing from the foreign thread leaked into the records.
        assert all(r.thread_id == 0 for r in tracer.result)

    def test_no_drops_when_following(self, runtime):
        backend = _virtual_backend()
        clock = backend.clock

        def body_traced():
            clock.advance(0.001)

        tracer = _tracer(runtime, backend, follow_threads=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with tracer:
                thread = threading.Thread(target=body_traced)
                thread.start()
                thread.join()
        assert tracer.result.dropped_events == 0
        assert tracer.result.dropped_threads == 0


# -- wrong-thread lifecycle guard (satellite 2) ---------------------------


class TestWrongThreadLifecycle:
    def _call_in_thread(self, fn):
        box = {}

        def run():
            try:
                fn()
            except RuntimeError as error:
                box["error"] = error

        thread = threading.Thread(target=run)
        thread.start()
        thread.join()
        return box.get("error")

    def test_start_from_wrong_thread_names_both_ids(self):
        tracer = _tracer("settrace", _virtual_backend())
        error = self._call_in_thread(tracer.start)
        assert error is not None
        message = str(error)
        assert str(tracer._created_ident) in message
        # The offending thread's ident is in there too (it is whatever
        # ident the helper thread had; the two ids differ).
        assert message.count("thread") >= 2
        assert not tracer._active

    def test_stop_from_wrong_thread_names_both_ids(self):
        tracer = _tracer("settrace", _virtual_backend())
        tracer.start()
        try:
            error = self._call_in_thread(tracer.stop)
            assert error is not None
            assert str(tracer._created_ident) in str(error)
        finally:
            tracer.stop()


# -- bit-exact single-threaded parity (satellite 3) -----------------------


def _parity_workload(clock):
    def leaf(i):
        clock.advance(0.001)
        return i

    def middle_traced(i):
        clock.advance(0.0005)
        return leaf(i) + leaf(i + 1)

    def gen_traced(n):
        for i in range(n):
            clock.advance(0.0002)
            yield i

    def top_traced():
        total = 0
        for i in range(2):
            total += middle_traced(i)
        total += sum(gen_traced(3))
        return total

    return top_traced


@pytest.mark.parametrize("runtime", RUNTIMES)
class TestSingleThreadedParity:
    def _run(self, runtime: str, follow: bool):
        backend = _virtual_backend()
        top = _parity_workload(backend.clock)
        tracer = _tracer(runtime, backend, follow_threads=follow)
        with tracer:
            top()
        return tracer.result

    def test_records_bit_exact(self, runtime):
        plain = list(self._run(runtime, follow=False))
        followed = list(self._run(runtime, follow=True))
        # Dataclass equality covers every field: method, call_index,
        # wall/cpu, every joule value to the last bit, provenance.
        assert followed == plain
        assert len(plain) > 0

    def test_result_txt_bytes_identical(self, runtime, tmp_path):
        path_a = tmp_path / "plain.txt"
        path_b = tmp_path / "followed.txt"
        self._run(runtime, follow=False).write_result_txt(path_a)
        self._run(runtime, follow=True).write_result_txt(path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_event_counts_identical(self, runtime):
        # Per-thread registration must not change the overhead estimate's
        # event count (``# overhead events=`` in result.txt).
        counts = []
        for follow in (False, True):
            backend = _virtual_backend()
            top = _parity_workload(backend.clock)
            tracer = EnergyTracer(
                backend,
                predicate=_predicate,
                runtime=runtime,
                follow_threads=follow,
            )
            # Capture the (event_count(), recorded_count()) pair stop()
            # prices, after the hooks are gone and before the buffers
            # are cleared.
            tracer._overhead_estimate = (
                lambda events, recorded, records: counts.append(
                    (events, recorded)
                )
            )
            with tracer:
                top()
        assert counts[0] == counts[1]
        assert counts[0][1] > 0


# -- failed final reading ---------------------------------------------------


class _FailingBackend(SimulatedBackend):
    """Simulated backend whose reads raise ``OSError`` once ``failing``."""

    failing = False

    def snapshot(self):
        if self.failing:
            raise OSError("energy counter unreadable")
        return super().snapshot()

    def snapshot_raw(self):
        if self.failing:
            raise OSError("energy counter unreadable")
        return super().snapshot_raw()


@pytest.mark.parametrize("follow", [False, True])
@pytest.mark.parametrize("runtime", RUNTIMES)
class TestFailedFinalRead:
    def _run(self, runtime: str, follow: bool) -> list:
        backend = _FailingBackend(clock=VirtualClock())
        clock = backend.clock
        tracer = _tracer(runtime, backend, follow_threads=follow)

        def leaf():
            clock.advance(0.25)

        def open_traced():
            leaf()
            # Only stop()'s final reading fails; leaf's return was the
            # last good one.
            backend.failing = True
            tracer.stop()

        clock.advance(5.0)
        tracer.start()
        open_traced()
        return list(tracer.result)

    def test_open_call_closes_against_last_good_reading(self, runtime, follow):
        records = self._run(runtime, follow)
        still_open = [r for r in records if "open_traced" in r.method]
        assert len(still_open) == 1
        assert still_open[0].wall_seconds >= 0.0
        assert still_open[0].suspect
        assert records == self._run(runtime, follow=False)


# -- suspend/resume pairing edge cases (satellite 3) -----------------------


@pytest.mark.parametrize("runtime", RUNTIMES)
class TestSuspendResumePairing:
    def test_nested_generators(self, runtime):
        backend = _virtual_backend()
        clock = backend.clock

        def gen_inner(n):
            for i in range(n):
                clock.advance(0.0001)
                yield i

        def gen_outer(n):
            for value in gen_inner(n):
                clock.advance(0.0002)
                yield value

        tracer = _tracer(runtime, backend, follow_threads=True)
        with tracer:
            assert list(gen_outer(3)) == [0, 1, 2]
        names = [r.method for r in tracer.result]
        # One record per resume cycle: n value-yielding resumes plus
        # the final exhausting resume, for each generator.
        assert sum("gen_inner" in n for n in names) == 4
        assert sum("gen_outer" in n for n in names) == 4

    def test_throw_into_suspended_generator(self, runtime):
        backend = _virtual_backend()
        clock = backend.clock

        def gen_victim():
            clock.advance(0.0001)
            yield 1
            yield 2  # never reached

        tracer = _tracer(runtime, backend, follow_threads=True)
        with tracer:
            g = gen_victim()
            assert next(g) == 1
            with pytest.raises(ValueError):
                g.throw(ValueError("expected"))
        victim = [r for r in tracer.result if "gen_victim" in r.method]
        # Two spans: the first resume (closed by the yield) and the
        # throw()-driven resume (closed by the unwind).
        assert len(victim) == 2

    def test_cancelled_asyncio_task(self, runtime):
        backend = _virtual_backend()
        clock = backend.clock

        async def victim_traced():
            clock.advance(0.0001)
            await asyncio.sleep(30)

        async def main():
            task = asyncio.create_task(victim_traced(), name="victim")
            await asyncio.sleep(0)  # let the victim start and suspend
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task

        tracer = _tracer(
            runtime, backend, follow_threads=True, follow_tasks=True
        )
        with tracer:
            asyncio.run(main())
        victim = [r for r in tracer.result if "victim_traced" in r.method]
        # First resume cycle (ran until the sleep suspended it) and the
        # cancellation resume (CancelledError unwinds the frame).
        assert len(victim) == 2
        assert all(r.task_name == "victim" for r in victim)


# -- asyncio task attribution ---------------------------------------------


@pytest.mark.parametrize("runtime", RUNTIMES)
class TestAsyncioAttribution:
    def test_tasks_billed_only_while_running(self, runtime):
        backend = _virtual_backend()
        clock = backend.clock

        async def work_traced(dt):
            clock.advance(dt)
            await asyncio.sleep(0)  # suspend; the other task runs
            clock.advance(dt)

        async def main():
            await asyncio.gather(
                asyncio.Task(work_traced(0.001), name="t-a"),
                asyncio.Task(work_traced(0.010), name="t-b"),
            )

        tracer = _tracer(
            runtime, backend, follow_threads=True, follow_tasks=True
        )
        with tracer:
            asyncio.run(main())

        by_task: dict[str, float] = {}
        for record in tracer.result:
            if "work_traced" in record.method:
                by_task[record.task_name] = (
                    by_task.get(record.task_name, 0.0) + record.wall_seconds
                )
        # A suspended coroutine bills nothing: each task owns exactly
        # the clock time it advanced itself, not its sibling's.
        assert by_task["t-a"] == pytest.approx(0.002)
        assert by_task["t-b"] == pytest.approx(0.020)

    def test_task_identity_captured_at_resume(self, runtime):
        backend = _virtual_backend()
        clock = backend.clock

        async def work_traced():
            clock.advance(0.001)
            await asyncio.sleep(0)
            clock.advance(0.001)

        async def main():
            await asyncio.Task(work_traced(), name="resumed")

        tracer = _tracer(
            runtime, backend, follow_threads=True, follow_tasks=True
        )
        with tracer:
            asyncio.run(main())
        spans = [r for r in tracer.result if "work_traced" in r.method]
        # One record per resume cycle, every one owned by the task.
        assert len(spans) == 2
        assert all(r.task_name == "resumed" for r in spans)


# -- subprocess capture ----------------------------------------------------


def _pool_leaf_traced(n: int) -> int:
    total = 0
    for i in range(n):
        total += (i * i) % 7
    return total


def _pool_child(n: int) -> int:
    return _pool_leaf_traced(n)


class TestSubprocessCapture:
    def test_pool_workers_ship_records_back(self):
        backend = _virtual_backend()
        context = multiprocessing.get_context("fork")
        tracer = EnergyTracer(
            backend,
            include=[os.path.dirname(os.path.abspath(__file__))],
            runtime="settrace",
            estimate_overhead=False,
            follow_subprocesses=True,
        )
        with tracer:
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=2,
                mp_context=context,
                initializer=maybe_bootstrap,
            ) as pool:
                assert list(pool.map(_pool_child, [500] * 4)) == [
                    _pool_leaf_traced(500)
                ] * 4
        child_records = [r for r in tracer.result if r.pid != 0]
        assert child_records, "no child records captured"
        assert all(r.pid != os.getpid() for r in child_records)
        assert any("_pool_leaf_traced" in r.method for r in child_records)

    def test_fork_children_bootstrap_without_initializer(self):
        # A plain fork Pool inside the profiled code never calls
        # maybe_bootstrap itself; the os.register_at_fork hook installed
        # at capture activation must do it.
        backend = _virtual_backend()
        context = multiprocessing.get_context("fork")
        tracer = EnergyTracer(
            backend,
            include=[os.path.dirname(os.path.abspath(__file__))],
            runtime="settrace",
            estimate_overhead=False,
            follow_subprocesses=True,
        )
        with tracer:
            with context.Pool(processes=2) as pool:
                assert pool.map(_pool_child, [500] * 4) == [
                    _pool_leaf_traced(500)
                ] * 4
        child_records = [r for r in tracer.result if r.pid != 0]
        assert child_records, "uncooperative fork children not captured"
        assert all(r.pid != os.getpid() for r in child_records)
        assert any("_pool_leaf_traced" in r.method for r in child_records)

    def test_env_restored_after_capture(self):
        from repro.profiler.subproc import ENV_FLAG

        before = os.environ.get(ENV_FLAG)
        tracer = EnergyTracer(
            _virtual_backend(),
            predicate=_predicate,
            runtime="settrace",
            estimate_overhead=False,
            follow_subprocesses=True,
        )
        with tracer:
            assert os.environ.get(ENV_FLAG) == "1"
        assert os.environ.get(ENV_FLAG) == before


def _fork_bootstrapped(body) -> int:
    """Fork a child that bootstraps, runs *body* and never returns."""
    pid = os.fork()
    if pid == 0:
        try:
            maybe_bootstrap()
            body()
        finally:
            os._exit(3)
    return pid


def _wait_status(pid: int, timeout: float = 10.0) -> int | None:
    """The child's wait status, or None (child SIGKILLed) on a hang."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return status
        time.sleep(0.01)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    return None


def _sleep_through_a_tripped_sigterm() -> None:
    _pool_child(500)

    def trip_from_another_thread() -> None:
        time.sleep(0.2)
        signal.pthread_kill(threading.get_ident(), signal.SIGTERM)

    # A SIGTERM caught on another thread trips the Python handler
    # without interrupting the main thread's wait: the state a SIGTERM
    # landing just before a blocking call (an idle Pool worker's queue
    # lock) leaves behind.
    threading.Thread(target=trip_from_another_thread).start()
    lock = threading.Lock()
    lock.acquire()
    lock.acquire()


def _outlive_a_terminated_grandchild() -> None:
    grandchild = os.fork()
    if grandchild == 0:
        # Signalled from within: its handler runs before the sleep.
        os.kill(os.getpid(), signal.SIGTERM)
        time.sleep(30)
        os._exit(0)
    os.waitpid(grandchild, 0)
    time.sleep(0.3)  # room for a misrouted wakeup to act
    os._exit(0)


class TestSigtermRescue:
    def _capture(self) -> SubprocessCapture:
        capture = SubprocessCapture(
            include=[os.path.dirname(os.path.abspath(__file__))]
        )
        capture.activate()
        return capture

    def test_sigterm_reaches_a_main_thread_already_asleep(self):
        capture = self._capture()
        try:
            pid = _fork_bootstrapped(_sleep_through_a_tripped_sigterm)
            status = _wait_status(pid)
        finally:
            spooled = capture.collect()
        assert status is not None, "child slept through its SIGTERM"
        assert os.WIFSIGNALED(status)
        assert os.WTERMSIG(status) == signal.SIGTERM
        assert any(
            child == pid
            and any("_pool_leaf_traced" in r.method for r in result)
            for child, result in spooled
        ), "profile not spooled before death"

    def test_grandchild_sigterm_leaves_the_parent_alive(self):
        capture = self._capture()
        try:
            pid = _fork_bootstrapped(_outlive_a_terminated_grandchild)
            status = _wait_status(pid)
        finally:
            capture.collect()
        assert status is not None, "child hung"
        assert os.WIFEXITED(status), "the grandchild's SIGTERM killed its parent"
        assert os.WEXITSTATUS(status) == 0


# -- conservation (acceptance) ---------------------------------------------


@pytest.mark.parametrize("runtime", RUNTIMES)
class TestConservation:
    def test_exclusive_plus_unattributed_equals_timeline(self, runtime):
        backend = _virtual_backend()
        clock = backend.clock

        def leaf(dt):
            clock.advance(dt)

        def middle_traced(dt):
            clock.advance(dt / 2)
            leaf(dt)

        async def work_traced(dt):
            clock.advance(dt)
            await asyncio.sleep(0)
            clock.advance(dt)

        async def loop_main():
            await asyncio.gather(
                asyncio.Task(work_traced(0.001), name="c-a"),
                asyncio.Task(work_traced(0.002), name="c-b"),
            )

        tracer = _tracer(
            runtime, backend, follow_threads=True, follow_tasks=True
        )
        with tracer:
            middle_traced(0.004)
            for i in range(4):
                thread = threading.Thread(
                    target=middle_traced, args=(0.001 * (i + 1),), name=f"t{i}"
                )
                thread.start()
                thread.join()
            asyncio.run(loop_main())
            clock.advance(0.003)  # untraced main-thread burn

        result = tracer.result
        assert result.dropped_events == 0
        assert result.timeline_joules, "timeline missing"
        for dom in result.timeline_joules:
            exclusive = sum(
                r.exclusive_joules.get(dom, 0.0) for r in result
            )
            unattributed = result.unattributed_joules.get(dom, 0.0)
            assert exclusive + unattributed == pytest.approx(
                result.timeline_joules[dom], rel=1e-9
            )
        # Every context showed up: main, 4 threads, 2 tasks.
        contexts = {r.context_label for r in result}
        assert "main" in contexts
        assert sum("thread=" in c for c in contexts) >= 4
        assert {
            c for c in contexts if "task=" in c
        }, "no task-attributed context"


# -- provenance round trip and merge ----------------------------------------


def _record(method="m", **kw) -> MethodRecord:
    defaults = dict(
        method=method,
        filename="f.py",
        lineno=1,
        call_index=0,
        wall_seconds=0.5,
        cpu_seconds=0.4,
        joules={Domain.PACKAGE: 2.0},
        exclusive_joules={Domain.PACKAGE: 1.5},
    )
    defaults.update(kw)
    return MethodRecord(**defaults)


class TestProvenanceRoundTrip:
    def test_tokens_survive_result_txt(self, tmp_path):
        result = ProfileResult()
        result.add(_record("plain"))
        result.add(
            _record(
                "worker",
                thread_id=7,
                thread_name="w",
                task_name="t1",
                pid=123,
                suspect=True,
            )
        )
        result.dropped_events = 5
        result.dropped_threads = 2
        path = result.write_result_txt(tmp_path / "result.txt")
        back = ProfileResult.read_result_txt(path)
        assert back.dropped_events == 5
        assert back.dropped_threads == 2
        plain, worker = list(back)
        assert (plain.thread_id, plain.task_name, plain.pid) == (0, "", 0)
        assert worker.thread_id == 7
        assert worker.thread_name == "w"
        assert worker.task_name == "t1"
        assert worker.pid == 123
        assert worker.suspect

    def test_clean_profile_format_unchanged(self, tmp_path):
        # A sync single-threaded profile must serialize byte-identically
        # to the pre-concurrency format: no tokens, no dropped header.
        result = ProfileResult()
        result.add(_record("simple"))
        path = result.write_result_txt(tmp_path / "result.txt")
        body = [
            line
            for line in path.read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert body == [
            "simple\t0.500000000\t0.400000000\t2.000000000\t0.000000000"
        ]

    def test_merge_stamps_pid_and_sums_accounting(self):
        parent = ProfileResult()
        parent.add(_record("p"))
        parent.timeline_joules = {Domain.PACKAGE: 4.0}
        child = ProfileResult()
        child.add(_record("c", thread_id=9))
        child.dropped_events = 3
        child.dropped_threads = 1
        child.timeline_joules = {Domain.PACKAGE: 1.0}
        parent.merge(child, pid=4242)
        assert [r.pid for r in parent] == [0, 4242]
        merged = list(parent)[1]
        assert merged.thread_id == 9  # thread provenance preserved
        assert parent.dropped_events == 3
        assert parent.dropped_threads == 1
        assert parent.timeline_joules[Domain.PACKAGE] == 5.0

    def test_report_gains_context_column_when_concurrent(self):
        from repro.profiler.report import ProfilerReport

        result = ProfileResult()
        result.add(_record("a"))
        result.add(_record("b", thread_id=5, thread_name="w"))
        rendered = ProfilerReport(result).render()
        assert "Context" in rendered
        assert "thread=5(w)" in rendered
        # Single-context profiles keep the original three-column view.
        solo = ProfileResult()
        solo.add(_record("a"))
        assert "Context" not in ProfilerReport(solo).render()
