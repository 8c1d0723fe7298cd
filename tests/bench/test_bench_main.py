"""Tests for the ``python -m repro.bench`` runner."""

import json

import pytest

from repro.bench.__main__ import main


class TestBenchMain:
    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Dependencies" in out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        assert "AirportFrom" in capsys.readouterr().out

    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        for marker in ("fig1", "fig2", "fig3", "fig4", "fig5"):
            assert f"===== {marker} =====" in out

    def test_table4_custom_size(self, capsys):
        assert main(
            ["table4", "--instances", "120", "--folds", "3", "--repeats", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "Random Forest" in out
        assert "Accuracy Drop" in out

    def test_semantics_project_and_output_flags(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(
            "def f(xs):\n"
            "    out = 0\n"
            "    for x in xs:\n"
            "        out += x\n"
            "    return out\n"
        )
        target = tmp_path / "BENCH_semantics.json"
        code = main(
            [
                "semantics",
                "--quick",
                "--check",
                "--project",
                str(tmp_path),
                "--output",
                str(target),
            ]
        )
        assert code == 0
        assert "within budget" in capsys.readouterr().out
        assert target.exists()

    def test_failed_gate_exits_one(self, tmp_path, monkeypatch, capsys):
        import repro.bench.semantics as semantics

        over_budget = semantics.SemanticsBenchResult(
            python="3.x", corpus="corpus", files=1, loc=1000, functions=1,
            repeats=1, quick=True, parse_ms=1.0,
            facts_ms=semantics.BUDGET_MS_PER_KLOC * 2,
        )
        monkeypatch.setattr(
            semantics, "run_semantics_bench", lambda **_: over_budget
        )
        target = tmp_path / "BENCH_semantics.json"
        assert main(["semantics", "--output", str(target)]) == 0
        assert main(["semantics", "--check", "--output", str(target)]) == 1
        out = capsys.readouterr().out
        assert "SEMANTICS REGRESSION" in out
        assert json.loads(target.read_text())["meets_target"] is False

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["table9"])
