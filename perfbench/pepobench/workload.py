"""What every workload provides to the closed-loop harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class OpResult:
    """One op as the client saw it: wall time plus its stage times."""

    index: int
    wall_s: float
    #: Which input the op used; ``round_s`` sums the per-item medians,
    #: so every item weighs the same however often it ran.
    item: int = 0
    #: Stage times and facts the workload's metrics need.
    stages: dict = field(default_factory=dict)
    traced: bool = False
    error: str | None = None


class Workload:
    """Base class: inputs in ``prepare``, set-up in ``setup``, one closed-
    loop operation per ``op`` call, the oracle in ``verify``.

    ``prepare`` writes the seeded inputs under ``workdir`` and is not
    timed.  ``setup`` does imports and object construction (and any
    cache fill); it runs once in the benchmark process and again, for
    ``setup_s``, in fresh interpreters whose private state lives under
    ``state_dir``.
    """

    name = ""
    #: Distinct inputs; a run does at least one op per item.
    items = 1
    #: Units of the workload's detail metrics, for the printed report.
    detail_units: dict[str, str] = {}

    def __init__(self, seed: int, workdir: Path, jobs: int) -> None:
        self.seed = seed
        self.workdir = workdir
        self.jobs = jobs

    def prepare(self) -> dict:
        """Write inputs; return the input fingerprint."""
        raise NotImplementedError

    def setup(self, state_dir: Path) -> None:
        raise NotImplementedError

    def op(self, index: int, rec) -> OpResult:
        raise NotImplementedError

    def verify(self, ops: list[OpResult]) -> dict[int, str]:
        """Oracle: op index -> mismatch description, for failed ops."""
        raise NotImplementedError

    def detail_metrics(self, ops: list[OpResult]) -> dict[str, float]:
        raise NotImplementedError

    def layer_metrics(self, rec, ops: list[OpResult]) -> dict[str, float]:
        """Per-layer metrics of the traced run (may run extra probes)."""
        raise NotImplementedError
