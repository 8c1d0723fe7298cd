"""Tests for the analytic energy model and the per-rule operation costs."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rapl.domains import Domain
from repro.rapl.model import DomainPower, EnergyModel
from repro.rules import REGISTRY


class TestEnergyModel:
    def test_idle_interval_costs_static_only(self):
        model = EnergyModel()
        joules = model.energy_joules(Domain.PACKAGE, wall_seconds=2.0, cpu_seconds=0.0)
        assert joules == pytest.approx(2.0 * 3.0)

    def test_busy_interval_adds_dynamic_term(self):
        model = EnergyModel()
        joules = model.energy_joules(Domain.PACKAGE, wall_seconds=1.0, cpu_seconds=1.0)
        assert joules == pytest.approx(3.0 + 12.0)

    def test_intensity_scales_dynamic_term_only(self):
        model = EnergyModel()
        base = model.energy_joules(Domain.PP0, 1.0, 1.0, intensity=1.0)
        doubled = model.energy_joules(Domain.PP0, 1.0, 1.0, intensity=2.0)
        assert doubled - base == pytest.approx(10.0)  # PP0 dynamic watts

    def test_package_dominates_core(self):
        model = EnergyModel()
        e = model.all_domains(1.0, 1.0)
        assert e[Domain.PACKAGE] > e[Domain.PP0] > e[Domain.PP1]

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            EnergyModel().energy_joules(Domain.PACKAGE, -1.0, 0.0)

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            EnergyModel().energy_joules(Domain.PACKAGE, 1.0, 1.0, intensity=-0.5)

    def test_negative_power_constant_rejected(self):
        with pytest.raises(ValueError):
            DomainPower(static_watts=-1.0, dynamic_watts=1.0)

    @given(
        wall=st.floats(0, 100, allow_nan=False),
        cpu=st.floats(0, 100, allow_nan=False),
        intensity=st.floats(0, 10, allow_nan=False),
    )
    def test_energy_is_monotone_in_each_argument(self, wall, cpu, intensity):
        model = EnergyModel()
        base = model.energy_joules(Domain.PACKAGE, wall, cpu, intensity)
        assert model.energy_joules(Domain.PACKAGE, wall + 1, cpu, intensity) >= base
        assert model.energy_joules(Domain.PACKAGE, wall, cpu + 1, intensity) >= base

    @given(
        wall=st.floats(0, 100, allow_nan=False),
        cpu=st.floats(0, 100, allow_nan=False),
    )
    def test_energy_is_additive_over_intervals(self, wall, cpu):
        model = EnergyModel()
        whole = model.energy_joules(Domain.DRAM, wall, cpu)
        halves = 2 * model.energy_joules(Domain.DRAM, wall / 2, cpu / 2)
        assert whole == pytest.approx(halves, abs=1e-9)


class TestOperationCostTable:
    """The per-rule operation costs, as the rule catalog carries them."""

    def test_paper_exact_percentages(self):
        """The five ratios Table I states numerically, verbatim."""
        assert REGISTRY.get("R04_GLOBAL_IN_LOOP").overhead_percent == 17700.0
        assert REGISTRY.get("R05_MODULUS").overhead_percent == 1620.0
        assert REGISTRY.get("R06_TERNARY").overhead_percent == 37.0
        assert REGISTRY.get("R09_STR_COMPARE").overhead_percent == 33.0
        assert REGISTRY.get("R11_TRAVERSAL").overhead_percent == 793.0

    def test_paper_exact_rows_not_marked_estimated(self):
        for rule_id in ("R04_GLOBAL_IN_LOOP", "R05_MODULUS", "R06_TERNARY",
                        "R09_STR_COMPARE", "R11_TRAVERSAL"):
            assert not REGISTRY.get(rule_id).overhead_is_estimate

    def test_qualitative_rows_marked_estimated(self):
        assert REGISTRY.get("R08_STR_CONCAT").overhead_is_estimate
        assert REGISTRY.get("R10_ARRAY_COPY").overhead_is_estimate

    def test_all_thirteen_rules_present(self):
        specs = REGISTRY.table1_specs()
        assert len(specs) == 13
        for spec in specs:
            assert spec.rule_id in REGISTRY
            assert spec.overhead_percent > 0.0

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            REGISTRY.get("R99_NOPE")
