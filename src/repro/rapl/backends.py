"""Measurement backends: where the joules come from.

Two backends share one interface (:class:`RaplBackend`):

* :class:`SimulatedBackend` — deterministic reproduction substrate.  A
  clock (real or virtual) supplies elapsed wall/CPU time, the
  :class:`~repro.rapl.model.EnergyModel` converts it to joules, and the
  joules are deposited into a :class:`~repro.rapl.msr.MsrFile` so that
  readers see genuine 32-bit wrapping counters.  Optional seeded noise
  and outlier injection exercise the paper's Tukey protocol.
* :class:`LiveBackend` — reads ``/sys/class/powercap`` (intel-rapl) when
  the host exposes it, for users running on real hardware.

:func:`default_backend` picks the live backend when powercap is
readable and falls back to the simulated one on a real clock, so the
same profiling code runs everywhere.

A profiler reads the backend at the start and end of every measured
call, so a reading's own cost lands inside the interval it measures.
The simulated backend therefore reads in one pass: a sync computes all
five domains' deposits from constants taken at construction and makes
one :meth:`~repro.rapl.msr.MsrFile.deposit_units` call; ``snapshot()``
feeds all five counters to one
:class:`~repro.rapl.msr.CounterAccumulator`; ``snapshot_raw()`` is the
clock pair plus :meth:`~repro.rapl.msr.MsrFile.read_all`.  The float
operations are the energy model's, in its order, so every reading is
bit-identical to depositing and accumulating one domain at a time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import threading
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Protocol, Sequence

from repro.rapl.domains import Domain
from repro.rapl.model import EnergyModel
from repro.rapl.msr import DOMAIN_ORDER, CounterAccumulator, MsrFile, check_raw
from repro.rapl.units import RaplUnits

_POWERCAP_ROOT = Path("/sys/class/powercap")


class Clock(Protocol):
    """Supplies (wall seconds, cpu seconds) timestamp pairs."""

    def now(self) -> tuple[float, float]:
        """Current (wall, cpu) time in seconds; both monotone."""
        ...


class RealClock:
    """Wall time from ``perf_counter``, CPU time from ``process_time``."""

    def now(self) -> tuple[float, float]:
        return time.perf_counter(), time.process_time()


class VirtualClock:
    """Manually advanced clock for deterministic tests and benches."""

    def __init__(self) -> None:
        self._wall = 0.0
        self._cpu = 0.0

    def advance(self, wall_seconds: float, cpu_seconds: float | None = None) -> None:
        """Advance time; ``cpu_seconds`` defaults to ``wall_seconds``.

        CPU time can never exceed wall time on a single thread, but we
        allow it (multi-core processes legitimately accumulate CPU time
        faster than wall time).
        """
        if cpu_seconds is None:
            cpu_seconds = wall_seconds
        if wall_seconds < 0 or cpu_seconds < 0:
            raise ValueError("clock cannot move backwards")
        self._wall += wall_seconds
        self._cpu += cpu_seconds

    def now(self) -> tuple[float, float]:
        return self._wall, self._cpu


@dataclass(frozen=True)
class EnergySnapshot:
    """A point-in-time cumulative reading: joules per domain + clocks.

    ``degraded`` is the provenance flag set by the resilience layer
    when the reading came from the fallback backend rather than the
    primary one (see :mod:`repro.resilience.resilient`).
    """

    joules: dict[Domain, float]
    wall_seconds: float
    cpu_seconds: float
    degraded: bool = False

    def delta(self, earlier: "EnergySnapshot") -> "EnergyDelta":
        """Consumption between ``earlier`` and this snapshot.

        A negative per-domain delta is physically impossible (the
        accumulated counters are monotone): it means an undetected
        counter wrap or a fault slipped through, so the value is
        clamped to zero, a :class:`RuntimeWarning` is emitted, and the
        returned delta is marked ``suspect`` for downstream filtering.
        """
        joules: dict[Domain, float] = {}
        suspect = False
        for dom in self.joules:
            value = self.joules[dom] - earlier.joules.get(dom, 0.0)
            if value < 0.0:
                warnings.warn(
                    f"negative energy delta for {dom.value} domain "
                    f"({value:.6f} J) — undetected counter wrap or faulty "
                    "read; clamping to 0 and marking the interval suspect",
                    RuntimeWarning,
                    stacklevel=2,
                )
                value = 0.0
                suspect = True
            joules[dom] = value
        return EnergyDelta(
            joules=joules,
            wall_seconds=self.wall_seconds - earlier.wall_seconds,
            cpu_seconds=self.cpu_seconds - earlier.cpu_seconds,
            suspect=suspect,
            degraded=self.degraded or earlier.degraded,
        )


@dataclass(frozen=True)
class EnergyDelta:
    """Energy and time consumed over an interval.

    ``suspect`` marks intervals where a measurement anomaly (negative
    delta, failed snapshot) was detected and papered over; ``degraded``
    marks intervals where at least one endpoint came from the fallback
    backend.  Both flags propagate into profiler records.
    """

    joules: dict[Domain, float]
    wall_seconds: float
    cpu_seconds: float
    suspect: bool = False
    degraded: bool = False

    @property
    def package_joules(self) -> float:
        return self.joules.get(Domain.PACKAGE, 0.0)

    @property
    def core_joules(self) -> float:
        return self.joules.get(Domain.PP0, 0.0)

    @property
    def dram_joules(self) -> float:
        return self.joules.get(Domain.DRAM, 0.0)

    def average_power_watts(self, domain: Domain) -> float:
        """Mean power over the interval; 0 for a zero-length interval."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.joules.get(domain, 0.0) / self.wall_seconds


class RaplBackend(Protocol):
    """The reading interface shared by simulated and live backends."""

    units: RaplUnits

    def read_raw(self, domain: Domain) -> int:
        """Raw 32-bit energy-status counter for ``domain``."""
        ...

    def snapshot(self) -> EnergySnapshot:
        """Monotone cumulative joules per domain, plus wall/CPU clocks."""
        ...


#: A raw reading: ``(wall_seconds, cpu_seconds, counter, counter, ...)``
#: with one counter per entry of the backend's ``raw_domains`` tuple.
#: Flat tuples keep the in-hook cost of the profiler's deferred path to
#: one allocation; all interpretation happens in ``materialize_raw``.
RawReading = tuple


class SimulatedBackend:
    """Deterministic RAPL backend driven by an energy model.

    Parameters
    ----------
    clock:
        Time source; :class:`VirtualClock` for determinism,
        :class:`RealClock` to track the live process.
    model:
        Static/dynamic power constants per domain.
    units:
        RAPL unit exponents for the simulated MSR file.
    noise_sigma:
        Relative standard deviation of multiplicative Gaussian noise
        applied to every deposit (0 disables; keep small, e.g. 0.02).
    outlier_rate / outlier_scale:
        With probability ``outlier_rate`` a deposit is multiplied by
        ``outlier_scale``, injecting the measurement outliers the
        paper's Tukey protocol removes.
    seed:
        Seed for the noise/outlier RNG.

    The model's per-domain watts and the units' exponent are read once,
    at construction: each sync computes every domain's deposit from
    those constants and hands all five to the register file in one
    :meth:`~repro.rapl.msr.MsrFile.deposit_units` call, so replacing
    ``model`` or ``units`` on a live backend does not change its
    counters.
    """

    def __init__(
        self,
        clock: Clock | None = None,
        model: EnergyModel | None = None,
        units: RaplUnits | None = None,
        noise_sigma: float = 0.0,
        outlier_rate: float = 0.0,
        outlier_scale: float = 5.0,
        seed: int = 0,
    ) -> None:
        if noise_sigma < 0:
            raise ValueError(f"noise_sigma must be non-negative: {noise_sigma}")
        if not 0.0 <= outlier_rate < 1.0:
            raise ValueError(f"outlier_rate must be in [0, 1): {outlier_rate}")
        self.clock: Clock = clock if clock is not None else RealClock()
        self.model = model or EnergyModel()
        self.units = units or RaplUnits.default()
        self.msr = MsrFile(units=self.units)
        self.noise_sigma = noise_sigma
        self.outlier_rate = outlier_rate
        self.outlier_scale = outlier_scale
        self._seed = seed
        self._rng = None
        if noise_sigma or outlier_rate:
            self._require_rng()
        self._intensity = 1.0
        # Snapshots may arrive from a sampler thread (see
        # repro.rapl.timeline); counter updates must be atomic.
        self._lock = threading.Lock()
        power = self.model.domain_power
        #: ``(static_watts, dynamic_watts)`` per domain, in DOMAIN_ORDER.
        self._watts = tuple(
            (power[dom].static_watts, power[dom].dynamic_watts)
            for dom in DOMAIN_ORDER
        )
        self._units_per_joule = 1 << self.units.energy_exp
        self._last_wall, self._last_cpu = self.clock.now()
        # Establish the baseline so the first snapshot reads zero.
        self._counters = CounterAccumulator(self.units, DOMAIN_ORDER)
        self._counters.update(self.msr.read_all())

    def _require_rng(self):
        """Noise/outlier RNG, created on first use.

        numpy is imported lazily so the deterministic (noise-free)
        profiling path stays usable on interpreters without numpy —
        e.g. a bare 3.12 used to exercise the ``sys.monitoring``
        profiler runtime.
        """
        if self._rng is None:
            import numpy as np

            self._rng = np.random.default_rng(self._seed)
        return self._rng

    # -- workload hints ------------------------------------------------

    @contextlib.contextmanager
    def intensity_scope(self, intensity: float) -> Iterator[None]:
        """Scale dynamic power within the scope (op-mix modeling).

        Micro-benchmarks use this to express that, e.g., a modulus-heavy
        loop switches more transistors per CPU-second than an
        addition-heavy one.
        """
        if intensity < 0:
            raise ValueError(f"intensity must be non-negative: {intensity}")
        self._sync()
        previous = self._intensity
        self._intensity = intensity
        try:
            yield
        finally:
            self._sync()
            self._intensity = previous

    def post_joules(self, domain: Domain, joules: float) -> None:
        """Deposit an explicit energy event (e.g. a DMA transfer)."""
        self.msr.deposit_joules(domain, joules)

    # -- internal ------------------------------------------------------

    def _sync(self) -> None:
        """Convert time elapsed since last sync into deposited energy."""
        with self._lock:
            self._sync_locked()

    def _sync_locked(self) -> None:
        """Deposit the energy of the time since the last sync.

        The float operations per domain are the model's
        (:meth:`EnergyModel.energy_joules`), then ``* scale`` and
        ``* (1 << energy_exp)`` into the register's residual; the
        clamped intervals and ``scale >= 0`` keep every amount
        non-negative, so nothing is re-validated here.
        """
        wall, cpu = self.clock.now()
        dwall = wall - self._last_wall
        dcpu = cpu - self._last_cpu
        self._last_wall, self._last_cpu = wall, cpu
        if dwall <= 0 and dcpu <= 0:
            return
        dwall = max(dwall, 0.0)
        dcpu = max(dcpu, 0.0)
        scale = 1.0
        if self.noise_sigma:
            scale *= max(
                0.0, 1.0 + self._require_rng().normal(0.0, self.noise_sigma)
            )
        if self.outlier_rate and self._require_rng().random() < self.outlier_rate:
            scale *= self.outlier_scale
        intensity = self._intensity
        units_per_joule = self._units_per_joule
        self.msr.deposit_units([
            (static * dwall + dynamic * intensity * dcpu) * scale * units_per_joule
            for static, dynamic in self._watts
        ])

    # -- RaplBackend interface ------------------------------------------

    def read_raw(self, domain: Domain) -> int:
        self._sync()
        return self.msr.read_domain(domain)

    def read_msr(self, address: int) -> int:
        """Address-level read, mirroring the injected reader's syscalls."""
        self._sync()
        return self.msr.read(address)

    def snapshot(self) -> EnergySnapshot:
        with self._lock:
            self._sync_locked()
            return EnergySnapshot(
                joules=self._counters.update(self.msr.read_all()),
                wall_seconds=self._last_wall,
                cpu_seconds=self._last_cpu,
            )

    # -- deferred-conversion fast path ---------------------------------

    #: Domain order of the counters in a raw reading tuple.
    raw_domains: tuple[Domain, ...] = DOMAIN_ORDER

    def snapshot_raw(self) -> RawReading:
        """One flat ``(wall, cpu, counter...)`` tuple, no unit conversion.

        The profiler's measured region calls this instead of
        :meth:`snapshot`: the 32-bit counters are recorded verbatim and
        the µJ→J accumulation, dict building and dataclass construction
        all happen once, after tracing stops, in :meth:`materialize_raw`.
        """
        with self._lock:
            self._sync_locked()
            return (self._last_wall, self._last_cpu, *self.msr.read_all())

    def materialize_raw(
        self, readings: Sequence[RawReading]
    ) -> list[EnergySnapshot]:
        """Convert chronological raw readings into cumulative snapshots.

        Wrap handling is order-sensitive, so readings must be passed in
        the order they were taken.  The accumulated joule values start
        from a fresh baseline (the first reading reads as zero); only
        deltas between the returned snapshots are meaningful, which is
        all the profiler computes.
        """
        update = CounterAccumulator(self.units, self.raw_domains).update
        check = check_raw
        snapshots = []
        for reading in readings:
            counters = reading[2:]
            check(counters)
            snapshots.append(
                EnergySnapshot(
                    joules=update(counters),
                    wall_seconds=reading[0],
                    cpu_seconds=reading[1],
                )
            )
        return snapshots


class LiveBackend:
    """Reads real RAPL counters from ``/sys/class/powercap``.

    Raises :class:`RuntimeError` at construction when the host exposes
    no readable intel-rapl zones — callers should then fall back to the
    simulated backend (see :func:`default_backend`).

    Snapshots are serialized by a lock: the concurrency-aware profiler
    takes readings from several threads against one shared monotonic
    timeline, and an interleaved (clock, counters...) read could order
    wall times one way and counter values the other, manufacturing a
    negative delta.  The lock makes every reading internally consistent
    and totally ordered.
    """

    def __init__(self, root: Path = _POWERCAP_ROOT) -> None:
        self.units = RaplUnits.default()
        self._zones: dict[Domain, Path] = {}
        name_to_domain = {
            "package-0": Domain.PACKAGE,
            "core": Domain.PP0,
            "uncore": Domain.PP1,
            "dram": Domain.DRAM,
            "psys": Domain.PSYS,
        }
        if root.is_dir():
            for zone in sorted(root.glob("intel-rapl:*")):
                name_file = zone / "name"
                energy_file = zone / "energy_uj"
                if not (name_file.is_file() and energy_file.is_file()):
                    continue
                try:
                    name = name_file.read_text().strip()
                    energy_file.read_text()
                except OSError:
                    continue
                domain = name_to_domain.get(name)
                if domain is not None:
                    self._zones[domain] = energy_file
        if Domain.PACKAGE not in self._zones:
            raise RuntimeError(
                "no readable intel-rapl package zone under "
                f"{os.fspath(root)}; use SimulatedBackend"
            )
        self._clock = RealClock()
        self._lock = threading.Lock()

    def read_raw(self, domain: Domain) -> int:
        """Microjoule counter folded to the 32-bit raw-unit space."""
        joules = self._read_joules(domain)
        return self.units.joules_to_raw(joules) & 0xFFFFFFFF

    def _read_joules(self, domain: Domain) -> float:
        path = self._zones.get(domain)
        if path is None:
            return 0.0
        return int(path.read_text().strip()) / 1e6

    def snapshot(self) -> EnergySnapshot:
        with self._lock:
            wall, cpu = self._clock.now()
            return EnergySnapshot(
                joules={dom: self._read_joules(dom) for dom in Domain},
                wall_seconds=wall,
                cpu_seconds=cpu,
            )

    # -- deferred-conversion fast path ---------------------------------

    @property
    def raw_domains(self) -> tuple[Domain, ...]:
        """Domain order of the counters in a raw reading tuple."""
        return tuple(self._zones)

    def snapshot_raw(self) -> RawReading:
        """Raw powercap µJ counters, one int per readable zone.

        Skips the float division and dict construction of
        :meth:`snapshot`; both happen in :meth:`materialize_raw` after
        tracing stops.
        """
        with self._lock:
            wall, cpu = self._clock.now()
            return (
                wall,
                cpu,
                *(int(path.read_text()) for path in self._zones.values()),
            )

    def materialize_raw(
        self, readings: Sequence[RawReading]
    ) -> list[EnergySnapshot]:
        """Convert buffered µJ readings into cumulative snapshots."""
        domains = self.raw_domains
        snapshots = []
        for reading in readings:
            joules = dict.fromkeys(Domain, 0.0)
            for dom, microjoules in zip(domains, reading[2:]):
                joules[dom] = microjoules / 1e6
            snapshots.append(
                EnergySnapshot(
                    joules=joules,
                    wall_seconds=reading[0],
                    cpu_seconds=reading[1],
                )
            )
        return snapshots


def default_backend(prefer_live: bool = True) -> RaplBackend:
    """Live backend when powercap is readable, else simulated-on-real-clock.

    Retry, timeout, circuit breaker and graceful degradation are
    ``PEPO(resilience=...)``'s job: it wraps whichever backend this
    returns in a :class:`~repro.resilience.resilient.ResilientBackend`.
    """
    if prefer_live:
        try:
            return LiveBackend()
        except RuntimeError:
            pass
    return SimulatedBackend(clock=RealClock())


class EnergyMeter:
    """Context manager measuring energy/time around a code region.

    This is the Python face of the paper's injected start/end MSR
    reads::

        meter = EnergyMeter(backend)
        with meter.measure() as reading:
            run_workload()
        print(reading.result.package_joules)
    """

    def __init__(self, backend: RaplBackend | None = None) -> None:
        self.backend: RaplBackend = backend or default_backend()
        self._last_snapshot: EnergySnapshot | None = None

    def _safe_snapshot(self) -> tuple[EnergySnapshot, bool]:
        """Snapshot, surviving backend faults.

        On failure the last good snapshot (or a zero snapshot) stands
        in and the reading is marked suspect — a lost measurement must
        not abort the workload it brackets.
        """
        try:
            snap = self.backend.snapshot()
        except OSError as error:
            warnings.warn(
                f"backend snapshot failed ({error}); measurement marked "
                "suspect",
                RuntimeWarning,
                stacklevel=3,
            )
            fallback = self._last_snapshot or EnergySnapshot(
                joules={}, wall_seconds=0.0, cpu_seconds=0.0
            )
            return fallback, False
        self._last_snapshot = snap
        return snap, True

    @contextlib.contextmanager
    def measure(self) -> Iterator["MeterReading"]:
        reading = MeterReading()
        start, start_ok = self._safe_snapshot()
        try:
            yield reading
        finally:
            end, end_ok = self._safe_snapshot()
            delta = end.delta(start)
            if not (start_ok and end_ok) and not delta.suspect:
                delta = dataclasses.replace(delta, suspect=True)
            reading._result = delta

    def measure_callable(self, fn, *args, **kwargs) -> tuple[object, EnergyDelta]:
        """Run ``fn`` and return ``(fn_result, energy_delta)``."""
        with self.measure() as reading:
            value = fn(*args, **kwargs)
        return value, reading.result


class MeterReading:
    """Holder populated when the :meth:`EnergyMeter.measure` scope exits."""

    def __init__(self) -> None:
        self._result: EnergyDelta | None = None

    @property
    def result(self) -> EnergyDelta:
        if self._result is None:
            raise RuntimeError("measurement scope has not exited yet")
        return self._result
