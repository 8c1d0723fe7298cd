"""RaplCounterReader wraparound coverage.

The satellite cases: multi-wrap intervals, a wrap landing exactly on
the 2**32 boundary, and wrap behavior under the fault injector.
"""

import pytest

from repro.rapl.backends import SimulatedBackend, VirtualClock
from repro.rapl.domains import Domain
from repro.rapl.msr import MsrFile, RaplCounterReader
from repro.rapl.units import RaplUnits

WRAP = 1 << 32


def make_reader() -> RaplCounterReader:
    return RaplCounterReader(units=RaplUnits.default())


class TestSingleWrap:
    def test_wrap_exactly_at_boundary(self):
        """0xFFFFFFFF -> 0 is one unit of energy, not minus a full period."""
        reader = make_reader()
        reader.update(WRAP - 1)
        joules = reader.update(0)
        assert joules == pytest.approx(reader.units.raw_to_joules(1))

    def test_equal_reading_is_not_a_wrap(self):
        reader = make_reader()
        reader.update(1234)
        assert reader.update(1234) == 0.0

    def test_wrap_through_msrfile_deposits(self):
        """Counters seeded near the top wrap under genuine deposits."""
        units = RaplUnits.default()
        msr = MsrFile(units=units, initial_raw={Domain.PACKAGE: WRAP - 10})
        reader = make_reader()
        reader.update(msr.read_domain(Domain.PACKAGE))
        deposited = units.raw_to_joules(100)
        msr.deposit_joules(Domain.PACKAGE, deposited)
        assert msr.read_domain(Domain.PACKAGE) < WRAP - 10  # wrapped
        joules = reader.update(msr.read_domain(Domain.PACKAGE))
        assert joules == pytest.approx(deposited)


class TestMultiWrap:
    def test_many_wraps_with_frequent_reads_lose_nothing(self):
        """Read at least once per period and any number of wraps is fine."""
        reader = make_reader()
        reader.update(0)
        total_units = 0
        raw = 0
        for _ in range(5):
            # Advance 3/4 of a period twice per simulated "wrap lap".
            for _ in range(2):
                raw = (raw + (WRAP // 4) * 3) % WRAP
                reader.update(raw)
                total_units += (WRAP // 4) * 3
        assert reader.joules == pytest.approx(
            reader.units.raw_to_joules(total_units)
        )

    def test_double_wrap_in_one_interval_undercounts_by_design(self):
        """A single interval spanning 2+ wraps is indistinguishable from
        one wrap — the reader (like every RAPL client) assumes readings
        are more frequent than the wrap period and undercounts by
        exactly one period per missed wrap."""
        reader = make_reader()
        reader.update(1000)
        # True consumption: just shy of two full periods, so the
        # counter lands *below* its previous value (one visible wrap).
        true_units = 2 * WRAP - 500
        observed = (1000 + true_units) % WRAP
        assert observed < 1000
        joules = reader.update(observed)
        assert joules == pytest.approx(
            reader.units.raw_to_joules(true_units - WRAP)
        )


class TestWrapUnderFaultInjection:
    def test_injected_wrap_inflates_naive_reader(self):
        """A missed-wrap fault makes the raw value jump backwards; the
        reader interprets it as a real wrap and adds ~a full period —
        the classic corruption the suspect-flagging guards against."""
        pytest.importorskip("numpy")  # the fault plan's RNG
        from repro.resilience import FaultInjectingBackend, FaultPlan

        inner = SimulatedBackend(clock=VirtualClock())
        injected = FaultInjectingBackend(inner, FaultPlan(), sleep=lambda s: None)
        reader = make_reader()
        inner.clock.advance(1.0)
        reader.update(injected.read_raw(Domain.PACKAGE))
        baseline = reader.joules
        injected.plan = FaultPlan(wrap_rate=1.0)
        inner.clock.advance(0.01)
        inflated = reader.update(injected.read_raw(Domain.PACKAGE))
        # The bogus backwards jump credits ~one full counter period.
        assert inflated - baseline > reader.units.raw_to_joules(WRAP // 2)

    def test_injected_wrap_at_snapshot_level_is_caught(self):
        """At snapshot level the same fault yields a negative delta,
        which is clamped and flagged instead of corrupting totals."""
        pytest.importorskip("numpy")  # the fault plan's RNG
        from repro.resilience import FaultInjectingBackend, FaultPlan

        inner = SimulatedBackend(clock=VirtualClock())
        injected = FaultInjectingBackend(inner, FaultPlan(), sleep=lambda s: None)
        inner.clock.advance(1.0)
        before = injected.snapshot()
        injected.plan = FaultPlan(wrap_rate=1.0)
        inner.clock.advance(0.01)
        after = injected.snapshot()
        with pytest.warns(RuntimeWarning, match="negative energy delta"):
            delta = after.delta(before)
        assert delta.suspect
        assert delta.joules[Domain.PACKAGE] == 0.0
        assert all(v >= 0.0 for v in delta.joules.values())
