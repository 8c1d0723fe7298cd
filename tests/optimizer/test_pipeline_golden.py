"""Golden test: the optimizer pipeline's outputs on a fixed corpus.

For every corpus file the golden stores the sha256 of the optimized
text, every ``AppliedChange`` (line included) and every unfixable
finding, so any change to what ``optimize_source`` produces fails here
rather than only in a benchmark oracle.

The corpus is the flow fixtures, ``examples/`` and the frozen Table IV
baselines.  Regenerate the golden only for an intended output change:

    PYTHONPATH=src python tests/optimizer/test_pipeline_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).with_name("data") / "pipeline_golden.json"

CORPUS = (
    sorted((ROOT / "tests" / "analyzer" / "fixtures" / "flow").glob("*.py"))
    + sorted((ROOT / "examples").glob("*.py"))
    + [
        ROOT / "src" / "repro" / "unopt" / f"{name}.py"
        for name in ("classifiers", "narrow", "slow_ops")
    ]
)


def _rel(path: Path) -> str:
    return path.relative_to(ROOT).as_posix()


def pipeline_record(path: Path) -> dict:
    """Everything ``optimize_source`` reports for one file, JSON-ready."""
    from repro.optimizer import optimize_source

    result = optimize_source(path.read_text(encoding="utf-8"), filename=_rel(path))
    return {
        "optimized_sha256": hashlib.sha256(
            result.optimized.encode("utf-8")
        ).hexdigest(),
        "changes": [list(dataclasses.astuple(c)) for c in result.changes],
        "unfixable": [f.to_dict() for f in result.unfixable],
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_the_corpus():
    assert sorted(_golden()) == sorted(_rel(p) for p in CORPUS)


@pytest.mark.parametrize("path", CORPUS, ids=_rel)
def test_pipeline_matches_golden(path):
    # Round-trip through JSON so tuples/floats compare in golden form.
    actual = json.loads(json.dumps(pipeline_record(path)))
    assert actual == _golden()[_rel(path)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    records = {_rel(p): pipeline_record(p) for p in CORPUS}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
