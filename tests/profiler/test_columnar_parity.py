"""Bit-exactness oracles for the profiler's one path and the run store.

The profiler has a single numpy-free implementation of the follow-mode
replay, ``ProfileResult.aggregate()`` and ``read_result_txt``.  Each is
checked here against an oracle that does not share its code: a
hand-rolled reference aggregation, the ``result.txt`` round trip, the
numpy column conversion the run store uses, and replay values pinned
from adversarial event buffers.  The run store's vectorized reductions
must equal the profiler's loops exactly: equal dataclasses,
repr-identical floats.

The module also runs numpy-free (CI proves it); the store and numpy
cases then skip.
"""

import random
import threading

import pytest

from repro.profiler.records import (
    MethodAggregate,
    MethodRecord,
    ProfileResult,
    aggregate_records_pure,
    parse_result_txt,
)
from repro.profiler.runtime import (
    OP_CLOSE,
    OP_OPEN,
    materialize_concurrent,
)
from repro.profiler.tracer import EnergyTracer
from repro.rapl.backends import EnergySnapshot, SimulatedBackend, VirtualClock
from repro.rapl.domains import Domain

try:
    import numpy
except ImportError:
    numpy = None

requires_numpy = pytest.mark.skipif(
    numpy is None, reason="run store reductions need numpy"
)

P, C = Domain.PACKAGE, Domain.PP0


def _random_result(seed: int, n: int = 400) -> ProfileResult:
    """Deterministic record soup: many methods, contexts, suspects."""
    rng = random.Random(seed)
    result = ProfileResult()
    counts: dict[str, int] = {}
    for _ in range(n):
        method = f"pkg.mod{rng.randrange(4)}.fn{rng.randrange(25)}"
        ci = counts.get(method, 0)
        counts[method] = ci + 1
        thread = rng.choice([0, 0, 4401, 4402])
        result.add(
            MethodRecord(
                method=method,
                filename="app.py",
                lineno=rng.randrange(500),
                call_index=ci,
                wall_seconds=rng.random(),
                cpu_seconds=rng.random(),
                joules={
                    Domain.PACKAGE: rng.random() * 7,
                    Domain.PP0: rng.random(),
                },
                exclusive_joules={Domain.PACKAGE: rng.random() * 3},
                suspect=rng.random() < 0.1,
                thread_id=thread,
                thread_name="w" if thread else "",
                task_name=rng.choice(["", "", "fetch"]),
                pid=rng.choice([0, 0, 0, 777]),
            )
        )
    return result


def _assert_aggregates_identical(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        # Dataclass equality, then repr: repr distinguishes floats that
        # == cannot (-0.0 vs 0.0) — the bit-exactness claim.
        assert a == b
        assert repr(a) == repr(b)


def _reference_aggregate(records, by_context=False):
    """Bucket first, then sum each bucket: no shared code with the loop.

    ``sum`` adds in list order starting from ``0``, the same IEEE-754
    addition sequence as the running sums, so the totals must match to
    the last bit.  ``sorted`` is stable, so ties keep first-seen order.
    """
    buckets: dict[tuple[str, str], list[MethodRecord]] = {}
    for r in records:
        key = (r.method, r.context_label if by_context else "")
        buckets.setdefault(key, []).append(r)
    aggregates = [
        MethodAggregate(
            method=method,
            calls=len(rs),
            wall_seconds=sum(r.wall_seconds for r in rs),
            cpu_seconds=sum(r.cpu_seconds for r in rs),
            package_joules=sum(r.package_joules for r in rs),
            core_joules=sum(r.core_joules for r in rs),
            exclusive_package_joules=sum(
                r.exclusive_joules.get(P, 0.0) for r in rs
            ),
            suspect_calls=sum(1 for r in rs if r.suspect),
            context=context,
        )
        for (method, context), rs in buckets.items()
    ]
    return sorted(aggregates, key=lambda a: a.package_joules, reverse=True)


class TestAggregateParity:
    def test_matches_pure_loop(self):
        result = _random_result(1)
        _assert_aggregates_identical(
            result.aggregate(), _reference_aggregate(result)
        )

    def test_matches_pure_loop_by_context(self):
        result = _random_result(2)
        _assert_aggregates_identical(
            result.aggregate(by_context=True),
            _reference_aggregate(result, by_context=True),
        )

    def test_merge_is_lazy_and_equivalent(self):
        # merge() only appends (O(total records), not O(N·records));
        # equivalence with a flat extend is the observable contract.
        parts = [_random_result(seed) for seed in range(5, 10)]
        merged = ProfileResult()
        flat = ProfileResult()
        for part in parts:
            merged.merge(part)
            flat.extend(list(part))
        assert list(merged) == list(flat)
        _assert_aggregates_identical(merged.aggregate(), flat.aggregate())


def _parse_messages(path):
    """The reader's error, and the store's numpy parse error if any."""
    messages = []
    with pytest.raises(ValueError) as excinfo:
        ProfileResult.read_result_txt(path)
    messages.append(str(excinfo.value))
    if numpy is not None:
        with pytest.raises(ValueError) as excinfo:
            parse_result_txt(path, np=numpy)
        messages.append(str(excinfo.value))
    return messages


class TestReadResultTxtParity:
    """The reader converts floats per value; the store (``np=numpy``)
    converts a column at once.  Values and errors must be identical."""

    def _write(self, tmp_path, seed=11):
        path = tmp_path / "result.txt"
        _random_result(seed).write_result_txt(path)
        return path

    def _corrupt(self, path, data_index, field_index, value):
        """Replace one field of one data line; return its 1-based line."""
        lines = path.read_text().splitlines()
        data_lines = [
            i for i, line in enumerate(lines)
            if line and not line.startswith("#")
        ]
        target = data_lines[data_index]
        parts = lines[target].split("\t")
        parts[field_index] = value
        lines[target] = "\t".join(parts)
        path.write_text("\n".join(lines) + "\n")
        return target + 1

    def test_round_trip_bytes_identical(self, tmp_path):
        path = self._write(tmp_path)
        original = path.read_bytes()
        read = ProfileResult.read_result_txt(path)
        out = tmp_path / "again.txt"
        read.write_result_txt(out)
        assert out.read_bytes() == original
        if numpy is not None:
            parsed = parse_result_txt(path, np=numpy)
            assert parsed.package.tolist() == [r.package_joules for r in read]
            assert parsed.wall.tolist() == [r.wall_seconds for r in read]

    @pytest.mark.parametrize("bad", ["nan", "-1.5", "inf", "-inf"])
    @pytest.mark.parametrize(
        "column, field_index",
        [("package_joules", 3), ("core_joules", 4)],
    )
    def test_rejects_bad_energy_identically(
        self, tmp_path, bad, column, field_index
    ):
        path = self._write(tmp_path)
        lineno = self._corrupt(path, 2, field_index, bad)
        messages = _parse_messages(path)
        assert len(set(messages)) == 1
        assert messages[0] == (
            f"{path}:{lineno}: {column} must be a finite non-negative "
            f"number, got {bad!r}"
        )

    def test_unparseable_float_identical_message(self, tmp_path):
        path = self._write(tmp_path)
        lineno = self._corrupt(path, 1, 1, "bogus")
        messages = _parse_messages(path)
        assert len(set(messages)) == 1
        assert messages[0] == (
            f"{path}:{lineno}: could not parse wall_seconds value 'bogus'"
        )

    def test_accepts_zero_energy(self, tmp_path):
        path = tmp_path / "result.txt"
        path.write_text(
            "# method\twall_seconds\tcpu_seconds\tpackage_joules\t"
            "core_joules\nm\t0.1\t0.1\t0.000000000\t0.000000000\n"
        )
        (record,) = list(ProfileResult.read_result_txt(path))
        assert record.package_joules == 0.0
        if numpy is not None:
            assert parse_result_txt(path, np=numpy).package.tolist() == [0.0]


# -- concurrent replay parity ------------------------------------------


def _conservation_workload(tracer, backend):
    """The TestConservation mix: owner, threads, tasks, idle burn."""
    import asyncio

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

    with tracer:
        middle_traced(0.004)
        for i in range(4):
            thread = threading.Thread(
                target=middle_traced, args=(0.001 * (i + 1),), name=f"t{i}"
            )
            thread.start()
            thread.join()
        asyncio.run(loop_main())
        clock.advance(0.003)


_TRACED = ("_traced", ".gen_", "leaf", "spin")


def _tracer(backend, **follow):
    return EnergyTracer(
        backend,
        predicate=lambda name: any(p in name for p in _TRACED),
        runtime="settrace",
        estimate_overhead=False,
        **follow,
    )


def _canonical(records):
    """Records normalized for cross-run comparison.

    The workload is deterministic under a VirtualClock *except* for the
    kernel-assigned thread idents, which differ between the two traced
    runs (and are even *recycled* across sequential start/join pairs, so
    rank-by-ident is unstable too).  Thread names are deterministic here,
    so idents are replaced by the name's first-seen rank and the list is
    sorted on a stable key.  Every float must still match exactly.
    """
    import dataclasses

    names = sorted({r.thread_name for r in records})
    ranks = {name: i for i, name in enumerate(names)}
    out = [
        dataclasses.replace(r, thread_id=ranks[r.thread_name])
        for r in records
    ]
    out.sort(
        key=lambda r: (r.method, r.thread_name, r.task_name, r.call_index)
    )
    return out


def _assert_conserves(records, timeline, unattributed):
    """Exclusive energy of the clean records + unattributed == timeline.

    A suspect record's delta spans a failed reading, whose gaps the
    timeline masks, so only clean records enter the sum.
    """
    domains = set(timeline) | set(unattributed)
    for r in records:
        if not r.suspect:
            domains.update(r.exclusive_joules)
    for dom in domains:
        exclusive = sum(
            r.exclusive_joules.get(dom, 0.0) for r in records if not r.suspect
        )
        assert exclusive + unattributed.get(dom, 0.0) == pytest.approx(
            timeline.get(dom, 0.0), rel=1e-12, abs=1e-15
        ), dom


class TestConcurrentReplayParity:
    """The TestConservation workload under a VirtualClock, pinned.

    Records are (method, thread name, task, package J, exclusive
    package J) after :func:`_canonical`.  Thread ``t3``'s ``leaf``
    reads 0 J: its close shares a wall timestamp with the owner's next
    open, the stable merge puts the owner's event first, and the gap
    between them lands on the idle owner as unattributed energy.
    """

    RECORDS = [
        ("leaf", "", "", 0.05999755859375, 0.05999755859375),
        ("leaf", "t0", "", 0.0150146484375, 0.0150146484375),
        ("leaf", "t1", "", 0.030029296875, 0.030029296875),
        ("leaf", "t2", "", 0.04498291015625, 0.04498291015625),
        ("leaf", "t3", "", 0.0, 0.0),
        ("middle_traced", "", "", 0.0899658203125, 0.02996826171875),
        ("middle_traced", "t0", "", 0.02252197265625, 0.00750732421875),
        ("middle_traced", "t1", "", 0.04498291015625, 0.01495361328125),
        ("middle_traced", "t2", "", 0.0675048828125, 0.02252197265625),
        ("middle_traced", "t3", "", 0.02996826171875, 0.02996826171875),
        ("work_traced", "", "c-a", 0.0150146484375, 0.0150146484375),
        ("work_traced", "", "c-a", 0.0150146484375, 0.0150146484375),
        ("work_traced", "", "c-b", 0.030029296875, 0.030029296875),
        ("work_traced", "", "c-b", 0.02996826171875, 0.02996826171875),
    ]
    TIMELINE = {
        P: 0.449951171875,
        C: 0.3299560546875,
        Domain.PP1: 0.05999755859375,
        Domain.DRAM: 0.05999755859375,
        Domain.PSYS: 0.5999755859375,
    }
    UNATTRIBUTED = {
        P: 0.10498046875,
        C: 0.07696533203125,
        Domain.PP1: 0.0140380859375,
        Domain.DRAM: 0.0140380859375,
        Domain.PSYS: 0.1400146484375,
    }

    def _run_workload(self):
        backend = SimulatedBackend(clock=VirtualClock())
        tracer = _tracer(
            backend, follow_threads=True, follow_tasks=True
        )
        _conservation_workload(tracer, backend)
        return tracer.result

    def test_full_workload_bit_exact(self, tmp_path):
        first = self._run_workload()
        records = _canonical(list(first))
        assert [
            (
                r.method.rsplit(".", 1)[1],
                r.thread_name,
                r.task_name,
                r.package_joules,
                r.exclusive_joules.get(P, 0.0),
            )
            for r in records
        ] == self.RECORDS
        assert repr(first.timeline_joules) == repr(self.TIMELINE)
        assert repr(first.unattributed_joules) == repr(self.UNATTRIBUTED)
        _assert_conserves(
            records, first.timeline_joules, first.unattributed_joules
        )
        # A second run replays to the same result.txt bytes.
        second = self._run_workload()
        paths = []
        for i, result in enumerate((first, second)):
            canon = ProfileResult()
            canon.extend(_canonical(list(result)))
            paths.append(canon.write_result_txt(tmp_path / f"{i}.txt"))
        assert paths[0].read_bytes() == paths[1].read_bytes()


def _rec(meta, call_index, wall, cpu, joules, *, suspect=False,
         thread_id=0, thread_name="", task_name=""):
    """A replayed record whose exclusive energy equals its inclusive."""
    method, filename, lineno = meta
    return MethodRecord(
        method=method,
        filename=filename,
        lineno=lineno,
        call_index=call_index,
        wall_seconds=wall,
        cpu_seconds=cpu,
        joules=joules,
        exclusive_joules=dict(joules),
        suspect=suspect,
        thread_id=thread_id,
        thread_name=thread_name,
        task_name=task_name,
    )


OWN = ("own.fn", "a.py", 1)
WRK = ("wrk.fn", "b.py", 2)
TASKED = ("t.fn", "b.py", 2)


class TestSyntheticReplayParity:
    """Adversarial buffers straight into :func:`materialize_concurrent`.

    The tracer never produces some of these shapes on a friendly
    workload — failed reads, domains appearing mid-run, calls still
    open at stop — so they are driven directly.  Every expected value
    is pinned: records, timeline, unattributed energy and CPU, compared
    by ``repr`` so each float must match to the last bit.
    """

    def _state(self, ident: int, name: str, is_owner: bool = False):
        from repro.profiler.runtime import _ThreadState

        state = _ThreadState(threading.current_thread(), is_owner)
        state.ident = ident
        state.name = name
        state.buffer = []
        return state

    def _snap(self, wall, pkg=None, core=None, cpu=0.0):
        joules = {}
        if pkg is not None:
            joules[P] = pkg
        if core is not None:
            joules[C] = core
        return EnergySnapshot(
            joules=joules, wall_seconds=wall, cpu_seconds=cpu
        )

    def _replay(self, states, final, final_ok, metadata, task_names=()):
        return materialize_concurrent(
            states,
            final,
            final_ok,
            metadata,
            lambda payloads: [
                p if p is not None else self._snap(0.0) for p in payloads
            ],
            {},
            list(task_names),
        )

    def _assert_replay(self, replay, records, timeline, unattributed, cpu):
        assert replay.records == records
        assert repr(replay.records) == repr(records)
        assert repr(replay.timeline_joules) == repr(timeline)
        assert repr(replay.unattributed_joules) == repr(unattributed)
        assert repr(replay.timeline_cpu_seconds) == repr(cpu)
        _assert_conserves(
            replay.records, replay.timeline_joules, replay.unattributed_joules
        )

    def test_failed_reads_and_idle_gaps(self):
        owner = self._state(0, "main", is_owner=True)
        worker = self._state(42, "w", is_owner=False)
        owner.buffer = [
            (OP_OPEN, 0, True, self._snap(0.0, 1.0, 0.5, cpu=0.1)),
            (OP_CLOSE, 0, True, self._snap(1.0, 2.5, 0.9, cpu=0.2)),
        ]
        worker.buffer = [
            (OP_OPEN, 1, False, self._snap(1.5, 3.0, 1.0, cpu=0.3)),
            (OP_CLOSE, 1, True, self._snap(2.0, 3.5, 1.2, cpu=0.4)),
        ]
        final = self._snap(3.0, 4.0, 1.5, cpu=0.6)
        replay = self._replay([owner, worker], final, True, [OWN, WRK])
        self._assert_replay(
            replay,
            [
                _rec(OWN, 0, 1.0, 0.1, {P: 1.5, C: 0.4}),
                # The failed open makes the record suspect; the gap
                # around it is masked from the timeline.
                _rec(
                    WRK, 0, 0.5, 0.10000000000000003,
                    {P: 0.5, C: 0.19999999999999996},
                    suspect=True, thread_id=42, thread_name="w",
                ),
            ],
            {P: 2.0, C: 0.7000000000000001},
            {P: 0.5, C: 0.30000000000000004},
            0.29999999999999993,
        )

    def test_domain_appears_mid_run(self):
        owner = self._state(0, "main", is_owner=True)
        # PP0 only exists from the second reading on; the first gap
        # must treat it as present-in-later-snapshot (key parity).
        owner.buffer = [
            (OP_OPEN, 0, True, self._snap(0.0, 1.0)),
            (OP_OPEN, 0, True, self._snap(0.5, 1.5, 0.2, cpu=0.1)),
            (OP_CLOSE, 0, True, self._snap(1.0, 2.0, 0.4, cpu=0.2)),
            (OP_CLOSE, 0, True, self._snap(1.5, 2.5, 0.6, cpu=0.3)),
        ]
        final = self._snap(2.0, 3.0, 0.8, cpu=0.4)
        replay = self._replay([owner], final, True, [OWN])
        outer = _rec(OWN, 1, 1.5, 0.3, {P: 1.5, C: 0.6})
        outer.exclusive_joules.update({P: 1.0, C: 0.39999999999999997})
        self._assert_replay(
            replay,
            [_rec(OWN, 0, 0.5, 0.1, {P: 0.5, C: 0.2}), outer],
            {P: 2.0, C: 0.8},
            {P: 0.5, C: 0.20000000000000007},
            0.4,
        )

    def test_open_at_stop_and_failed_final(self):
        owner = self._state(0, "main", is_owner=True)
        worker = self._state(7, "w")
        owner.buffer = [
            (OP_OPEN, 0, True, self._snap(0.0, 1.0, 0.1, cpu=0.1)),
        ]
        worker.buffer = [
            (OP_OPEN, 1, True, self._snap(0.5, 1.2, 0.2, cpu=0.2)),
        ]
        final = self._snap(1.0, 1.4, 0.3, cpu=0.3)
        third = 0.09999999999999998
        fifth = 0.19999999999999996
        # Both calls close against the final reading.  With a good
        # final reading the worker's energy is all foreign (the tail
        # slice ran on the owner); with a failed one both are suspect
        # and the tail is not on the timeline.
        expected = {
            True: (
                [
                    _rec(OWN, 0, 1.0, third, {P: fifth, C: third}),
                    _rec(
                        WRK, 0, 0.5, 0.0, {P: 0.0, C: 0.0},
                        thread_id=7, thread_name="w",
                    ),
                ],
                {P: 0.3999999999999999, C: 0.19999999999999998},
                {P: fifth, C: 0.1},
                0.19999999999999998,
            ),
            False: (
                [
                    _rec(
                        OWN, 0, 1.0, third, {P: fifth, C: third},
                        suspect=True,
                    ),
                    _rec(
                        WRK, 0, 0.5, third, {P: fifth, C: third},
                        suspect=True, thread_id=7, thread_name="w",
                    ),
                ],
                {P: fifth, C: 0.1},
                {P: fifth, C: 0.1},
                0.1,
            ),
        }
        for final_ok in (True, False):
            replay = self._replay(
                [owner, worker], final, final_ok, [OWN, WRK]
            )
            self._assert_replay(replay, *expected[final_ok])

    def test_interleaved_threads_with_tasks(self):
        owner = self._state(0, "main", is_owner=True)
        w1 = self._state(11, "w1")
        w2 = self._state(22, "w2")
        owner.buffer = [
            (OP_OPEN, 0, True, self._snap(0.0, 1.0, cpu=0.1), 0),
            (OP_CLOSE, 0, True, self._snap(3.0, 9.0, cpu=0.9), 0),
        ]
        w1.buffer = [
            (OP_OPEN, 1, True, self._snap(0.5, 2.0, cpu=0.2), 1),
            (OP_CLOSE, 1, True, self._snap(1.5, 4.0, cpu=0.4), 1),
        ]
        w2.buffer = [
            (OP_OPEN, 1, True, self._snap(1.0, 3.0, cpu=0.3), -1),
            (OP_CLOSE, 1, True, self._snap(2.5, 7.0, cpu=0.7), -1),
        ]
        final = self._snap(4.0, 11.0, cpu=1.1)
        replay = self._replay(
            [owner, w1, w2], final, True, [OWN, TASKED],
            task_names=["alpha", "beta"],
        )
        self._assert_replay(
            replay,
            [
                _rec(
                    TASKED, 0, 1.0, 0.1, {P: 1.0},
                    thread_id=11, thread_name="w1", task_name="beta",
                ),
                _rec(
                    TASKED, 1, 1.5, 0.2999999999999999, {P: 3.0},
                    thread_id=22, thread_name="w2",
                ),
                _rec(
                    OWN, 0, 3.0, 0.20000000000000007, {P: 2.0},
                    task_name="alpha",
                ),
            ],
            {P: 10.0},
            {P: 4.0},
            1.0,
        )

    def test_masked_events_everywhere(self):
        # Every read failed: gaps all masked, deltas come from the
        # final snapshot only, nothing may crash.
        owner = self._state(0, "main", is_owner=True)
        owner.buffer = [
            (OP_OPEN, 0, False, None),
            (OP_CLOSE, 0, False, None),
        ]
        replay = self._replay(
            [owner], self._snap(1.0, 2.0, cpu=0.5), False, [OWN]
        )
        self._assert_replay(
            replay, [_rec(OWN, 0, 0.0, 0.0, {}, suspect=True)], {}, {}, 0.0
        )


# -- store reductions (numpy required) ----------------------------------


@requires_numpy
class TestStoreParity:
    def test_store_aggregate_matches_pure(self, tmp_path):
        from repro.store import RunColumns

        result = _random_result(21)
        cols = RunColumns.from_records(list(result))
        pure = aggregate_records_pure(list(result))
        pure.sort(key=lambda a: a.package_joules, reverse=True)
        _assert_aggregates_identical(cols.aggregate(), pure)

    def test_from_result_txt_matches_read(self, tmp_path):
        from repro.store import RunColumns

        path = tmp_path / "result.txt"
        _random_result(22).write_result_txt(path)
        cols = RunColumns.from_result_txt(path)
        records = list(ProfileResult.read_result_txt(path))
        pure = aggregate_records_pure(records)
        pure.sort(key=lambda a: a.package_joules, reverse=True)
        _assert_aggregates_identical(cols.aggregate(), pure)
        by_context = aggregate_records_pure(records, by_context=True)
        by_context.sort(key=lambda a: a.package_joules, reverse=True)
        _assert_aggregates_identical(
            cols.aggregate(by_context=True), by_context
        )

    def test_cross_run_concat_matches_merged_result(self, tmp_path):
        from repro.store import RunStore

        parts = [_random_result(seed, n=150) for seed in (31, 32, 33)]
        store = RunStore(tmp_path / "store")
        for i, part in enumerate(parts):
            store.ingest_result(part, label=f"r{i}")
        merged = ProfileResult()
        for part in parts:
            merged.merge(part)
        cols, run_ids = store.load_all()
        pure = aggregate_records_pure(list(merged))
        pure.sort(key=lambda a: a.package_joules, reverse=True)
        _assert_aggregates_identical(cols.aggregate(), pure)
        assert len(run_ids) == len(cols)

    def test_store_rejects_bad_energy_like_reader(self, tmp_path):
        from repro.store import RunColumns

        path = tmp_path / "result.txt"
        path.write_text(
            "# method\twall_seconds\tcpu_seconds\tpackage_joules\t"
            "core_joules\nm\t0.1\t0.1\tnan\t0.0\n"
        )
        with pytest.raises(ValueError) as store_err:
            RunColumns.from_result_txt(path)
        with pytest.raises(ValueError) as reader_err:
            ProfileResult.read_result_txt(path)
        assert str(store_err.value) == str(reader_err.value)
