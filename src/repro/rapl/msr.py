"""A simulated machine-specific register (MSR) file with RAPL semantics.

The paper's injected measurement code "reads the machine specific
registers (MSR) at the start and end of each method".  On real hardware
that is a ``pread`` on ``/dev/cpu/N/msr``; here :class:`MsrFile` plays
the role of the register file and reproduces the properties the injected
reader must cope with:

* energy counters are 32-bit and *wrap* (a long method can observe
  ``end < start``);
* counters tick in energy status units (≈61 µJ by default), so
  sub-unit energy is accumulated internally and only becomes visible
  once a full unit has been consumed;
* ``MSR_RAPL_POWER_UNIT`` must be read and decoded before any energy
  counter is meaningful.

:class:`CounterAccumulator` is the software-side accumulator that turns
wrapping raw counters into monotone joule counts — exactly what a
production RAPL client (perf, pyRAPL, jRAPL) implements.  It takes a
whole reading (one counter per domain) per update, so the simulated
backend's ``snapshot()`` and ``materialize_raw()`` pay one call per
reading, not one per domain; :class:`RaplCounterReader` is its
one-counter face, with a range check on every value.

The register file keeps its counters in :data:`DOMAIN_ORDER` lists.
:meth:`MsrFile.deposit_units` advances all of them in one call — the
simulated backend's per-sync deposit — and :meth:`MsrFile.read_all`
returns all of them in one tuple.  Per-domain deposits
(:meth:`MsrFile.deposit_joules`) validate their input and go through the
same tick rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.rapl.domains import Domain
from repro.rapl.units import DEFAULT_POWER_UNIT_RAW, RaplUnits

#: Architectural MSR addresses (Intel SDM Vol. 4).
MSR_RAPL_POWER_UNIT = 0x606
MSR_PKG_ENERGY_STATUS = 0x611
MSR_DRAM_ENERGY_STATUS = 0x619
MSR_PP0_ENERGY_STATUS = 0x639
MSR_PP1_ENERGY_STATUS = 0x641
MSR_PLATFORM_ENERGY_STATUS = 0x64D

#: Energy-status MSR address for each RAPL domain.
MSR_ADDRESSES: dict[Domain, int] = {
    Domain.PACKAGE: MSR_PKG_ENERGY_STATUS,
    Domain.PP0: MSR_PP0_ENERGY_STATUS,
    Domain.PP1: MSR_PP1_ENERGY_STATUS,
    Domain.DRAM: MSR_DRAM_ENERGY_STATUS,
    Domain.PSYS: MSR_PLATFORM_ENERGY_STATUS,
}

_ADDRESS_TO_DOMAIN = {addr: dom for dom, addr in MSR_ADDRESSES.items()}

#: The order of the counters in :meth:`MsrFile.read_all`,
#: :meth:`MsrFile.deposit_units` and the simulated backend's readings.
DOMAIN_ORDER: tuple[Domain, ...] = tuple(Domain)
_DOMAIN_INDEX = {dom: i for i, dom in enumerate(DOMAIN_ORDER)}

_COUNTER_BITS = 32
_COUNTER_MASK = (1 << _COUNTER_BITS) - 1


class MsrError(OSError):
    """Raised for reads of unknown or unreadable MSR addresses."""


def check_raw(counters: Sequence[int]) -> None:
    """Raise :class:`ValueError` unless every counter fits in 32 bits.

    :meth:`CounterAccumulator.update` trusts its input; readings that
    did not come straight from a register file are checked here first.
    """
    if min(counters) < 0 or max(counters) > _COUNTER_MASK:
        bad = next(c for c in counters if not 0 <= c <= _COUNTER_MASK)
        raise ValueError(f"raw counter out of range: {bad:#x}")


class MsrFile:
    """Simulated per-socket MSR register file.

    Energy is *deposited* (in joules via :meth:`deposit_joules`, or in
    energy status units for every domain at once via
    :meth:`deposit_units`, which the simulated backend does) and
    becomes visible through 32-bit wrapping counters read with
    :meth:`read`, just as on real silicon.

    Parameters
    ----------
    units:
        RAPL unit exponents; defaults to the Ivy Bridge value.
    initial_raw:
        Optional starting raw counter value per domain — real counters
        start at an arbitrary point, and tests use this to exercise
        wraparound near ``2**32``.
    """

    def __init__(
        self,
        units: RaplUnits | None = None,
        initial_raw: dict[Domain, int] | None = None,
    ) -> None:
        self.units = units or RaplUnits.default()
        # Per-domain state in DOMAIN_ORDER: the visible counter and the
        # fraction of an energy status unit not yet visible.
        self._raw = [0] * len(DOMAIN_ORDER)
        self._residual = [0.0] * len(DOMAIN_ORDER)
        if initial_raw:
            index = _DOMAIN_INDEX
            for dom, raw in initial_raw.items():
                if not 0 <= raw <= _COUNTER_MASK:
                    raise ValueError(f"initial raw counter out of range: {raw:#x}")
                self._raw[index[dom]] = raw

    # -- hardware-facing side (driven by the energy model) ------------

    def deposit_joules(self, domain: Domain, joules: float) -> None:
        """Advance a domain's counter by ``joules`` of consumed energy.

        Sub-unit remainders accumulate in a residual so that depositing
        many small amounts loses nothing (the counter only ever ticks in
        whole energy status units, like hardware).
        """
        if joules < 0:
            raise ValueError(f"cannot deposit negative energy: {joules}")
        units = [0.0] * len(DOMAIN_ORDER)
        units[_DOMAIN_INDEX[domain]] = joules * (1 << self.units.energy_exp)
        self.deposit_units(units)

    def deposit_units(self, units: Sequence[float]) -> None:
        """Advance every counter by energy status units, in
        :data:`DOMAIN_ORDER`.

        The amounts are not checked: callers pass non-negative values
        (:meth:`deposit_joules` validates; the simulated backend's
        amounts are non-negative by construction).  A residual below
        one unit is unchanged by a zero amount, so a zero leaves its
        counter exactly as it was.
        """
        raw = self._raw
        residual = self._residual
        mask = _COUNTER_MASK
        for i, amount in enumerate(units):
            left = residual[i] + amount
            whole = int(left)
            if whole:
                left -= whole
                raw[i] = (raw[i] + whole) & mask
            residual[i] = left

    # -- software-facing side (what the injected reader sees) ---------

    def read(self, address: int) -> int:
        """Read an MSR by address, mirroring ``pread(/dev/cpu/N/msr)``."""
        if address == MSR_RAPL_POWER_UNIT:
            return self.units.encode() or DEFAULT_POWER_UNIT_RAW
        domain = _ADDRESS_TO_DOMAIN.get(address)
        if domain is None:
            raise MsrError(f"rdmsr: unknown MSR address {address:#x}")
        return self._raw[_DOMAIN_INDEX[domain]]

    def read_domain(self, domain: Domain) -> int:
        """Read the raw 32-bit energy counter for ``domain``."""
        return self._raw[_DOMAIN_INDEX[domain]]

    def read_all(self) -> tuple[int, ...]:
        """Every raw 32-bit energy counter, in :data:`DOMAIN_ORDER`."""
        return tuple(self._raw)


class CounterAccumulator:
    """Turns readings of wrapping 32-bit raw counters into monotone joules.

    This is the accumulation logic every RAPL client carries: remember
    the previous raw reading, treat a decrease as a single wrap, and
    sum deltas in joules.  One instance tracks a fixed row of counters,
    one per key (the simulated backend's keys are its domains), and
    takes a whole reading per :meth:`update`.
    """

    __slots__ = ("_keys", "_joules_per_unit", "_last", "_totals")

    def __init__(self, units: RaplUnits, keys: Sequence) -> None:
        self._keys = tuple(keys)
        self._joules_per_unit = units.energy_joules
        self._last: Sequence[int] | None = None
        self._totals = [0] * len(self._keys)

    def update(self, counters: Sequence[int]) -> dict:
        """Feed one reading, a counter per key in key order; return
        each key's joules accumulated so far.

        The first reading establishes the baseline and contributes zero.
        A raw value lower than the previous one is interpreted as exactly
        one counter wrap (valid as long as readings are more frequent
        than the ~minutes-scale wrap period at realistic power draws).
        Values are not range-checked (see :func:`check_raw`).
        """
        last = self._last
        if last is None:
            last = counters
        self._last = counters
        totals = self._totals
        joules_per_unit = self._joules_per_unit
        mask = _COUNTER_MASK
        joules = {}
        for i, key in enumerate(self._keys):
            # The wrap rule: modulo 2**32, a backwards step is one wrap.
            total = totals[i] = totals[i] + ((counters[i] - last[i]) & mask)
            joules[key] = total * joules_per_unit
        return joules


@dataclass
class RaplCounterReader:
    """One wrapping 32-bit counter read as monotone joules.

    A :class:`CounterAccumulator` of width one, with every value
    range-checked.  One reader instance tracks one domain.
    """

    units: RaplUnits
    _counter: CounterAccumulator = field(init=False, repr=False, compare=False)
    _joules: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.reset()

    def update(self, raw: int) -> float:
        """Feed a new raw reading; return total joules accumulated so far.

        The first reading establishes the baseline and contributes zero;
        a decrease is one counter wrap (:meth:`CounterAccumulator.update`).
        """
        check_raw((raw,))
        self._joules = self._counter.update((raw,))[0]
        return self._joules

    @property
    def joules(self) -> float:
        """Total energy accumulated across all :meth:`update` calls."""
        return self._joules

    def reset(self) -> None:
        """Forget the baseline and accumulated total."""
        self._counter = CounterAccumulator(self.units, range(1))
        self._joules = 0.0
