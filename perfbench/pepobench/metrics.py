"""The benchmark's metric catalogue: names, units, directions and bounds,
read from ``BENCHMARK.json`` at the repository root.

End-to-end metrics are reported on every workload.  Per-layer metrics
are reported by the traced run of every workload; a layer that a
workload does not run reports 0 there (see the README's map of which
layer each workload exercises).
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)

#: name -> (unit, better, bound)
END_TO_END: dict[str, tuple[str, str, float]] = {
    m["name"]: (m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]
}

#: name -> (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {
    m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]
}

#: Rules with per-rule metrics, in catalogue order.
RULE_IDS = tuple(
    name.split(".")[1]
    for name in PER_LAYER
    if name.startswith("rules.") and name.endswith(".ms_per_kloc")
)
