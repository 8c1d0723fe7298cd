"""BENCHMARK.json agrees with the workloads and the rule registry, and
results with different fingerprints are not compared."""

import json

from pepobench import cli, metrics
from pepobench.summary import comparable


def test_benchmark_json_names_every_workload():
    names = [w["name"] for w in metrics.SPEC["workloads"]]
    assert names == sorted(cli.workload_classes())


def test_rule_metrics_cover_the_registry():
    from repro.rules import REGISTRY

    assert metrics.RULE_IDS == tuple(
        spec.rule_id for spec in REGISTRY if spec.detector is not None
    )


def _result(**fingerprint):
    base = {"workload": "edit-loop", "seed": 1, "python": "3.11.7"}
    return {"fingerprint": {**base, **fingerprint}, "end_to_end": {"round_s": 1.0}}


def test_results_with_different_fingerprints_are_not_compared(tmp_path, capsys):
    assert comparable(_result(), _result()) == []
    assert comparable(_result(), _result(python="3.12.1")) == ["python"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_result()))
    b.write_text(json.dumps(_result(seed=2)))
    assert cli.compare([str(a), str(b)]) == 1
    assert "refusing" in capsys.readouterr().out
    b.write_text(json.dumps(_result()))
    assert cli.compare([str(a), str(b)]) == 0
