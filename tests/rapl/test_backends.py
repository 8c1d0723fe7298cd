"""Tests for simulated/live backends, the meter, and the perf harness."""

import random

import pytest

from repro.rapl.backends import (
    EnergyMeter,
    LiveBackend,
    RealClock,
    SimulatedBackend,
    VirtualClock,
    default_backend,
)
from repro.rapl.domains import Domain
from repro.rapl.model import EnergyModel
from repro.rapl.msr import MSR_PKG_ENERGY_STATUS, MsrFile, RaplCounterReader
from repro.rapl.perf import METRICS, EnergySample, PerfStat
from repro.rapl.units import RaplUnits


def make_backend(**kwargs) -> SimulatedBackend:
    return SimulatedBackend(clock=VirtualClock(), **kwargs)


class TestVirtualClock:
    def test_advances_wall_and_cpu(self):
        clock = VirtualClock()
        clock.advance(2.0, 1.5)
        assert clock.now() == (2.0, 1.5)

    def test_cpu_defaults_to_wall(self):
        clock = VirtualClock()
        clock.advance(3.0)
        assert clock.now() == (3.0, 3.0)

    def test_cannot_move_backwards(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)


class TestSimulatedBackend:
    def test_initial_snapshot_is_zero(self):
        backend = make_backend()
        snap = backend.snapshot()
        assert all(j == 0.0 for j in snap.joules.values())

    def test_one_busy_second_yields_model_energy(self):
        backend = make_backend()
        backend.clock.advance(1.0, 1.0)
        snap = backend.snapshot()
        assert snap.joules[Domain.PACKAGE] == pytest.approx(15.0, rel=1e-3)
        assert snap.joules[Domain.PP0] == pytest.approx(11.0, rel=1e-3)

    def test_idle_time_costs_static_power_only(self):
        backend = make_backend()
        backend.clock.advance(1.0, 0.0)
        snap = backend.snapshot()
        assert snap.joules[Domain.PACKAGE] == pytest.approx(3.0, rel=1e-3)

    def test_snapshots_are_monotone(self):
        backend = make_backend()
        previous = backend.snapshot().joules[Domain.PACKAGE]
        for _ in range(5):
            backend.clock.advance(0.5, 0.3)
            current = backend.snapshot().joules[Domain.PACKAGE]
            assert current >= previous
            previous = current

    def test_intensity_scope_scales_dynamic_energy(self):
        backend = make_backend()
        with backend.intensity_scope(2.0):
            backend.clock.advance(1.0, 1.0)
        snap = backend.snapshot()
        # package: 3*1 static + 12*2*1 dynamic
        assert snap.joules[Domain.PACKAGE] == pytest.approx(27.0, rel=1e-3)

    def test_intensity_scope_restores_previous(self):
        backend = make_backend()
        with backend.intensity_scope(3.0):
            pass
        backend.clock.advance(1.0, 1.0)
        assert backend.snapshot().joules[Domain.PACKAGE] == pytest.approx(
            15.0, rel=1e-3
        )

    def test_negative_intensity_rejected(self):
        backend = make_backend()
        with pytest.raises(ValueError):
            with backend.intensity_scope(-1.0):
                pass

    def test_post_joules_adds_explicit_event(self):
        backend = make_backend()
        backend.post_joules(Domain.DRAM, 5.0)
        snap = backend.snapshot()
        assert snap.joules[Domain.DRAM] == pytest.approx(5.0, rel=1e-3)

    def test_read_msr_by_address(self):
        backend = make_backend()
        backend.clock.advance(1.0, 1.0)
        raw = backend.read_msr(MSR_PKG_ENERGY_STATUS)
        assert raw == backend.units.joules_to_raw(15.0)

    def test_noise_is_deterministic_given_seed(self):
        pytest.importorskip("numpy")  # the RNG
        def run(seed):
            backend = make_backend(noise_sigma=0.05, seed=seed)
            backend.clock.advance(1.0, 1.0)
            return backend.snapshot().joules[Domain.PACKAGE]

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_outlier_injection_produces_occasional_spikes(self):
        pytest.importorskip("numpy")  # the RNG
        backend = make_backend(outlier_rate=0.3, outlier_scale=10.0, seed=1)
        values = []
        for _ in range(30):
            before = backend.snapshot().joules[Domain.PACKAGE]
            backend.clock.advance(1.0, 1.0)
            values.append(backend.snapshot().joules[Domain.PACKAGE] - before)
        spikes = [v for v in values if v > 50.0]
        normal = [v for v in values if v <= 50.0]
        assert spikes and normal

    def test_invalid_noise_and_outlier_params_rejected(self):
        with pytest.raises(ValueError):
            make_backend(noise_sigma=-0.1)
        with pytest.raises(ValueError):
            make_backend(outlier_rate=1.0)


class TestEnergyMeter:
    def test_measures_delta_inside_scope_only(self):
        backend = make_backend()
        backend.clock.advance(5.0, 5.0)  # pre-existing consumption
        meter = EnergyMeter(backend)
        with meter.measure() as reading:
            backend.clock.advance(1.0, 1.0)
        assert reading.result.package_joules == pytest.approx(15.0, rel=1e-3)
        assert reading.result.wall_seconds == pytest.approx(1.0)
        assert reading.result.cpu_seconds == pytest.approx(1.0)

    def test_reading_before_exit_raises(self):
        meter = EnergyMeter(make_backend())
        with meter.measure() as reading:
            with pytest.raises(RuntimeError):
                _ = reading.result

    def test_measure_callable_returns_value_and_delta(self):
        backend = make_backend()
        meter = EnergyMeter(backend)

        def work():
            backend.clock.advance(2.0, 1.0)
            return "done"

        value, delta = meter.measure_callable(work)
        assert value == "done"
        assert delta.package_joules == pytest.approx(3 * 2 + 12 * 1, rel=1e-3)

    def test_average_power(self):
        backend = make_backend()
        meter = EnergyMeter(backend)
        with meter.measure() as reading:
            backend.clock.advance(2.0, 2.0)
        assert reading.result.average_power_watts(Domain.PACKAGE) == pytest.approx(
            15.0, rel=1e-3
        )

    def test_real_clock_measures_actual_work(self):
        """End-to-end on the real clock: busy work consumes > idle epsilon."""
        meter = EnergyMeter(SimulatedBackend(clock=RealClock()))
        with meter.measure() as reading:
            total = sum(i * i for i in range(200_000))
        assert total > 0
        assert reading.result.package_joules > 0.0
        assert reading.result.cpu_seconds > 0.0


class TestPerfStat:
    def test_run_collects_requested_repeats(self):
        backend = make_backend()
        perf = PerfStat(backend)

        def work():
            backend.clock.advance(1.0, 1.0)

        samples = perf.run(work, repeats=5)
        assert len(samples) == 5
        for sample in samples:
            assert sample.package_joules == pytest.approx(15.0, rel=1e-3)

    def test_invalid_repeats_rejected(self):
        with pytest.raises(ValueError):
            PerfStat(make_backend()).run(lambda: None, repeats=0)

    def test_metric_lookup(self):
        sample = EnergySample(10.0, 7.0, 2.0, 1.5)
        assert sample.metric("package") == 10.0
        assert sample.metric("cpu") == 7.0
        assert sample.metric("time") == 2.0
        with pytest.raises(KeyError):
            sample.metric("dram")

    def test_column_extraction(self):
        samples = [EnergySample(1.0, 2.0, 3.0, 4.0), EnergySample(5.0, 6.0, 7.0, 8.0)]
        assert PerfStat.column(samples, "package") == [1.0, 5.0]
        assert PerfStat.column(samples, "time") == [3.0, 7.0]

    def test_metrics_tuple_matches_table_iv_columns(self):
        assert METRICS == ("package", "cpu", "time")


class TestDefaultBackend:
    def test_default_backend_returns_working_backend(self):
        backend = default_backend()
        snap = backend.snapshot()
        assert Domain.PACKAGE in snap.joules

    def test_simulated_fallback_when_live_unavailable(self, tmp_path):
        with pytest.raises(RuntimeError):
            LiveBackend(root=tmp_path)

    def test_live_backend_reads_powercap_layout(self, tmp_path):
        zone = tmp_path / "intel-rapl:0"
        zone.mkdir()
        (zone / "name").write_text("package-0\n")
        (zone / "energy_uj").write_text("2000000\n")
        backend = LiveBackend(root=tmp_path)
        snap = backend.snapshot()
        assert snap.joules[Domain.PACKAGE] == pytest.approx(2.0)


class TestRawSnapshotPath:
    """The profiler's deferred fast path must match full snapshots."""

    def _advance_pattern(self, clock):
        for seconds in (0.5, 1.25, 0.1, 3.0):
            clock.advance(seconds)
            yield

    def test_simulated_raw_deltas_match_snapshot_deltas(self):
        # Two identical backends driven through the same clock pattern:
        # one via snapshot(), one via snapshot_raw()+materialize_raw().
        full = make_backend()
        raw = make_backend()
        snaps = [full.snapshot()]
        readings = [raw.snapshot_raw()]
        for _ in self._advance_pattern(full.clock):
            snaps.append(full.snapshot())
        for _ in self._advance_pattern(raw.clock):
            readings.append(raw.snapshot_raw())
        materialized = raw.materialize_raw(readings)
        assert len(materialized) == len(snaps)
        for i in range(1, len(snaps)):
            want = snaps[i].delta(snaps[i - 1])
            got = materialized[i].delta(materialized[i - 1])
            assert got.wall_seconds == want.wall_seconds
            assert got.cpu_seconds == want.cpu_seconds
            for dom in Domain:
                assert got.joules.get(dom, 0.0) == pytest.approx(
                    want.joules.get(dom, 0.0), abs=1e-9
                ), dom

    def test_simulated_raw_handles_counter_wrap(self):
        # ~50 kJ of virtual work wraps the 32-bit energy register at
        # least once; materialized deltas must stay positive and match
        # the wrap-aware snapshot() path.
        full = make_backend()
        raw = make_backend()
        readings = [raw.snapshot_raw()]
        snaps = [full.snapshot()]
        for _ in range(4):
            raw.clock.advance(5_000.0)
            full.clock.advance(5_000.0)
            readings.append(raw.snapshot_raw())
            snaps.append(full.snapshot())
        materialized = raw.materialize_raw(readings)
        for i in range(1, len(snaps)):
            got = materialized[i].delta(materialized[i - 1])
            want = snaps[i].delta(snaps[i - 1])
            assert got.joules[Domain.PACKAGE] > 0
            assert got.joules[Domain.PACKAGE] == pytest.approx(
                want.joules[Domain.PACKAGE], rel=1e-9
            )

    def test_simulated_raw_reading_shape(self):
        backend = make_backend()
        reading = backend.snapshot_raw()
        assert len(reading) == 2 + len(backend.raw_domains)
        assert all(isinstance(c, int) for c in reading[2:])

    def test_live_raw_matches_snapshot(self, tmp_path):
        zone = tmp_path / "intel-rapl:0"
        zone.mkdir()
        (zone / "name").write_text("package-0\n")
        (zone / "energy_uj").write_text("2000000\n")
        backend = LiveBackend(root=tmp_path)
        reading = backend.snapshot_raw()
        (zone / "energy_uj").write_text("4500000\n")
        later = backend.snapshot_raw()
        first, second = backend.materialize_raw([reading, later])
        assert first.joules[Domain.PACKAGE] == pytest.approx(2.0)
        assert second.joules[Domain.PACKAGE] == pytest.approx(4.5)
        assert second.delta(first).joules[Domain.PACKAGE] == pytest.approx(2.5)

    def test_resilient_backend_has_no_raw_path(self):
        pytest.importorskip("numpy")  # ResilientBackend's jitter RNG
        # ResilientBackend must keep using full snapshots so retries
        # and degradation provenance stay on the measurement path.
        from repro.resilience.policy import ResiliencePolicy
        from repro.resilience.resilient import ResilientBackend

        wrapped = ResilientBackend(make_backend(), ResiliencePolicy())
        assert not hasattr(wrapped, "snapshot_raw")


class _ReferenceBackend:
    """The simulated backend rebuilt from its public pieces, one domain
    at a time: ``EnergyModel.energy_joules`` -> ``MsrFile.deposit_joules``
    -> one ``RaplCounterReader`` per domain."""

    def __init__(self, clock, noise_sigma=0.0, outlier_rate=0.0,
                 outlier_scale=5.0, seed=0):
        self.clock = clock
        self.model = EnergyModel()
        self.units = RaplUnits.default()
        self.msr = MsrFile(units=self.units)
        self.noise_sigma = noise_sigma
        self.outlier_rate = outlier_rate
        self.outlier_scale = outlier_scale
        self.rng = None
        if noise_sigma or outlier_rate:
            np = pytest.importorskip("numpy")
            self.rng = np.random.default_rng(seed)
        self.intensity = 1.0
        self.wall, self.cpu = clock.now()
        self.readers = {dom: RaplCounterReader(units=self.units) for dom in Domain}
        for dom in Domain:
            self.readers[dom].update(self.msr.read_domain(dom))

    def sync(self):
        wall, cpu = self.clock.now()
        dwall, dcpu = wall - self.wall, cpu - self.cpu
        self.wall, self.cpu = wall, cpu
        if dwall <= 0 and dcpu <= 0:
            return
        dwall, dcpu = max(dwall, 0.0), max(dcpu, 0.0)
        scale = 1.0
        if self.noise_sigma:
            scale *= max(0.0, 1.0 + self.rng.normal(0.0, self.noise_sigma))
        if self.outlier_rate and self.rng.random() < self.outlier_rate:
            scale *= self.outlier_scale
        for dom in Domain:
            joules = self.model.energy_joules(dom, dwall, dcpu, self.intensity)
            self.msr.deposit_joules(dom, joules * scale)

    def snapshot_raw(self):
        self.sync()
        return (self.wall, self.cpu, *(self.msr.read_domain(d) for d in Domain))

    def snapshot(self):
        reading = self.snapshot_raw()
        joules = {
            dom: self.readers[dom].update(raw)
            for dom, raw in zip(Domain, reading[2:])
        }
        return joules, reading[0], reading[1]


def _schedule(seed, steps=150):
    """Irregular clock steps (zero-length ones included), reads, explicit
    deposits and one intensity scope; enough virtual time that every
    32-bit counter wraps."""
    rng = random.Random(seed)
    ops = []
    for step in range(steps):
        # Steps below one energy unit (~61 uJ) leave their energy in
        # the residual for a later read to see.
        wall = rng.choice([0.0, 0.0, 1e-9, 4e-6, 1.1e-5, 3.1e-4, 0.37, 2.5, 3000.0])
        cpu = rng.choice([0.0, wall, wall * 0.3, 1e-6, 7.25])
        ops.append(("advance", wall, cpu))
        if step == 40:
            ops.append(("enter", 2.75))
        elif step == 90:
            ops.append(("exit",))
        if rng.random() < 0.2:
            ops.append(("post", rng.choice(list(Domain)), rng.choice([0.0, 1e-5, 0.25, 17.0])))
        if rng.random() < 0.8:
            ops.append(("read",))
    # 150 busy kiloseconds: even PP1 (2 W busy) passes 2**32 units of
    # 2**-14 J, while no read interval spans a whole period.
    for _ in range(30):
        ops += [("advance", 5000.0, 5000.0), ("read",)]
    return ops


def _drive(ops, backend, read):
    """Run ``ops`` against ``backend`` (real or reference); return what
    ``read(backend)`` gave at each read."""
    readings, scopes = [], []
    for op, *args in ops:
        if op == "advance":
            backend.clock.advance(*args)
        elif op == "post":
            if isinstance(backend, _ReferenceBackend):
                backend.msr.deposit_joules(*args)
            else:
                backend.post_joules(*args)
        elif op == "enter":
            if isinstance(backend, _ReferenceBackend):
                backend.sync()
                scopes.append(backend.intensity)
                backend.intensity = args[0]
            else:
                scope = backend.intensity_scope(args[0])
                scope.__enter__()
                scopes.append(scope)
        elif op == "exit":
            scope = scopes.pop()
            if isinstance(backend, _ReferenceBackend):
                backend.sync()
                backend.intensity = scope
            else:
                scope.__exit__(None, None, None)
        else:
            readings.append(read(backend))
    return readings


def _snapshot_fields(backend):
    snap = backend.snapshot()
    return snap.joules, snap.wall_seconds, snap.cpu_seconds


_NOISY = {"noise_sigma": 0.05, "outlier_rate": 0.2, "seed": 11}


class TestKernelOracle:
    """snapshot() and snapshot_raw() -> materialize_raw() equal, float for
    float, the per-domain reference on an irregular schedule."""

    @pytest.mark.parametrize(
        "kwargs", [{}, _NOISY], ids=["noise-free", "noise+outliers"]
    )
    def test_snapshot_matches_reference(self, kwargs):
        ops = _schedule(seed=5)
        reference = _ReferenceBackend(VirtualClock(), **kwargs)
        want = _drive(ops, reference, _ReferenceBackend.snapshot)
        got = _drive(ops, make_backend(**kwargs), _snapshot_fields)
        assert got == want
        assert repr(got) == repr(want)  # key order and signed zeros too

    @pytest.mark.parametrize(
        "kwargs", [{}, _NOISY], ids=["noise-free", "noise+outliers"]
    )
    def test_raw_path_matches_reference(self, kwargs):
        ops = _schedule(seed=9)
        reference = _ReferenceBackend(VirtualClock(), **kwargs)
        raw_want = _drive(ops, reference, _ReferenceBackend.snapshot_raw)
        backend = make_backend(**kwargs)
        raw_got = _drive(ops, backend, SimulatedBackend.snapshot_raw)
        assert raw_got == raw_want
        wrapped = {
            dom
            for before, after in zip(raw_want, raw_want[1:])
            for dom, a, b in zip(Domain, before[2:], after[2:])
            if b < a
        }
        assert wrapped == set(Domain)

        # materialize_raw starts from a fresh baseline at the first reading.
        readers = {dom: RaplCounterReader(units=backend.units) for dom in Domain}
        want = [
            (
                {dom: readers[dom].update(raw) for dom, raw in zip(Domain, r[2:])},
                r[0],
                r[1],
            )
            for r in raw_want
        ]
        got = [
            (s.joules, s.wall_seconds, s.cpu_seconds)
            for s in backend.materialize_raw(raw_got)
        ]
        assert got == want
        assert repr(got) == repr(want)

    def test_materialize_raw_rejects_out_of_range_counters(self):
        backend = make_backend()
        reading = backend.snapshot_raw()
        bad = reading[:3] + (1 << 32,) + reading[4:]
        with pytest.raises(ValueError, match="out of range"):
            backend.materialize_raw([reading, bad])
