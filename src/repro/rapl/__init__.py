"""RAPL (Running Average Power Limit) substrate.

The paper's JEPO profiler reads Intel machine-specific registers (MSRs)
exposed by RAPL to attribute energy to Java methods.  This package
rebuilds that substrate for Python:

* :mod:`repro.rapl.units` — decoding of the ``MSR_RAPL_POWER_UNIT``
  register (energy-status units, power units, time units).
* :mod:`repro.rapl.domains` — the RAPL power domains (package, PP0/core,
  PP1/uncore, DRAM, PSYS).
* :mod:`repro.rapl.msr` — a simulated MSR register file with genuine
  RAPL semantics: 32-bit wrapping energy counters at energy-status-unit
  granularity.
* :mod:`repro.rapl.model` — the analytic energy model that drives the
  simulated counters (static + dynamic power, per-operation costs).
* :mod:`repro.rapl.backends` — measurement backends: a deterministic
  simulated backend (virtual or real clock) and a live backend that
  prefers ``/sys/class/powercap`` when readable.
* :mod:`repro.rapl.perf` — a ``perf stat``-like harness around callables
  (the paper measures with the Linux ``perf`` tool).
"""

from repro.rapl.backends import (
    EnergyMeter,
    EnergySnapshot,
    LiveBackend,
    RaplBackend,
    RealClock,
    SimulatedBackend,
    VirtualClock,
    default_backend,
)
from repro.rapl.domains import Domain
from repro.rapl.dvfs import DvfsModel, DvfsPoint
from repro.rapl.model import EnergyModel
from repro.rapl.msr import MsrFile, RaplCounterReader, MSR_ADDRESSES
from repro.rapl.perf import EnergySample, PerfStat
from repro.rapl.timeline import Timeline, TimelinePoint, TimelineSampler
from repro.rapl.units import RaplUnits

__all__ = [
    "Domain",
    "DvfsModel",
    "DvfsPoint",
    "EnergyMeter",
    "EnergyModel",
    "EnergySample",
    "EnergySnapshot",
    "LiveBackend",
    "MsrFile",
    "MSR_ADDRESSES",
    "PerfStat",
    "RaplBackend",
    "RaplCounterReader",
    "RaplUnits",
    "RealClock",
    "SimulatedBackend",
    "Timeline",
    "TimelinePoint",
    "TimelineSampler",
    "VirtualClock",
    "default_backend",
]
