"""Analytic energy model driving the simulated RAPL counters.

The model is the classic two-term CMOS abstraction

    ``P(t) = P_static + P_dynamic * u(t)``

integrated over the measurement interval: static (leakage + idle) power
is paid for *wall-clock* time, dynamic (switching) power for *CPU* time,
optionally scaled by an instruction-intensity factor.  Relative
improvements — the quantity the paper reports — are invariant to the
absolute constants, which we default to values plausible for the
paper's i5-3317U (17 W TDP ULV part).

The per-rule relative costs the paper measured for Java components
(Table I: modulus +1,620 %, ternary +37 %, …) live in the rule catalog
(:mod:`repro.rules.builtin`), one ``overhead_percent`` per rule spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.rapl.domains import Domain


@dataclass(frozen=True)
class DomainPower:
    """Power constants for one RAPL domain, in watts."""

    static_watts: float
    dynamic_watts: float

    def __post_init__(self) -> None:
        if self.static_watts < 0 or self.dynamic_watts < 0:
            raise ValueError("power constants must be non-negative")


#: Default per-domain constants, sized for a 17 W TDP ultrabook part.
#: PACKAGE strictly dominates PP0 which dominates PP1; DRAM is mostly
#: static (refresh) with a small activation term.
DEFAULT_DOMAIN_POWER: Mapping[Domain, DomainPower] = MappingProxyType(
    {
        Domain.PACKAGE: DomainPower(static_watts=3.0, dynamic_watts=12.0),
        Domain.PP0: DomainPower(static_watts=1.0, dynamic_watts=10.0),
        Domain.PP1: DomainPower(static_watts=0.5, dynamic_watts=1.5),
        Domain.DRAM: DomainPower(static_watts=1.2, dynamic_watts=0.8),
        Domain.PSYS: DomainPower(static_watts=6.0, dynamic_watts=14.0),
    }
)


@dataclass(frozen=True)
class EnergyModel:
    """Maps an execution interval to joules per RAPL domain.

    Parameters
    ----------
    domain_power:
        Per-domain static/dynamic constants.
    """

    domain_power: Mapping[Domain, DomainPower] = field(
        default_factory=lambda: DEFAULT_DOMAIN_POWER
    )

    def energy_joules(
        self,
        domain: Domain,
        wall_seconds: float,
        cpu_seconds: float,
        intensity: float = 1.0,
    ) -> float:
        """Energy consumed by ``domain`` over an interval.

        ``intensity`` scales the dynamic term; 1.0 is a typical mixed
        integer workload, >1 models switching-heavy code (e.g. integer
        division), <1 models stall-bound code.
        """
        if wall_seconds < 0 or cpu_seconds < 0:
            raise ValueError("interval durations must be non-negative")
        if intensity < 0:
            raise ValueError(f"intensity must be non-negative: {intensity}")
        power = self.domain_power[domain]
        return (
            power.static_watts * wall_seconds
            + power.dynamic_watts * intensity * cpu_seconds
        )

    def all_domains(
        self, wall_seconds: float, cpu_seconds: float, intensity: float = 1.0
    ) -> dict[Domain, float]:
        """Energy for every modeled domain over the same interval."""
        return {
            dom: self.energy_joules(dom, wall_seconds, cpu_seconds, intensity)
            for dom in self.domain_power
        }
